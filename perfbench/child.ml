(* The benchmark's OCaml child process.  Three modes:

     child eval METHOD FILE [--trace]
       evaluate FILE's query with METHOD (a [Magic_core.Rewrite.methods]
       name or "auto") along the call path of [magic eval], and print
       the answers one per line; with --trace, finish with one
       "%trace {...}" line of per-call spans (ms), engine counters and
       GC deltas
     child reference FILE
       the same answers from the GMS rewrite on the uncompiled
       reference engine: the oracle eval ops are checked against
     child probe
       host-speed probe: for each line read on stdin, run a fixed
       stdlib-only kernel and print its duration in ms *)

open Datalog
module C = Magic_core

let max_facts = 5_000_000 (* magic eval's default budget *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let tracing = ref false
let spans : (string * float) list ref = ref []

let span name f =
  if not !tracing then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    spans := (name, (Unix.gettimeofday () -. t0) *. 1e3) :: !spans;
    r
  end

let load path =
  let src = read_file path in
  match span "parse" (fun () -> Parser.parse_program_spanned src) with
  | Error { Parser.message; _ } -> failwith ("syntax error: " ^ message)
  | Ok (program, query, srcmap) ->
    let errors =
      span "preflight" (fun () -> Analysis.preflight ~srcmap ?query program)
    in
    if errors <> [] then failwith "preflight refused the program";
    let query =
      match query with Some q -> q | None -> failwith "no ?- query"
    in
    let program, edb =
      span "load" (fun () ->
          let program, facts = Parser.split_facts program in
          (program, Engine.Database.of_facts facts))
    in
    (program, query, edb)

let print_answers answers =
  let b = Buffer.create 4096 in
  List.iter
    (fun t ->
      Buffer.add_string b (Engine.Tuple.to_string t);
      Buffer.add_char b '\n')
    answers;
  print_string (Buffer.contents b)

let check_outcome (out : Engine.Eval.outcome) =
  if out.Engine.Eval.diverged then failwith "evaluation diverged"

let eval name path =
  let gc0 = Gc.quick_stat () in
  let program, query, edb = load path in
  let method_ =
    if name = "auto" then
      span "choose" (fun () ->
          (Analysis.choose_strategy ~db:edb program query)
            .Analysis.Pass_cost.winner
            .Analysis.Pass_cost.method_)
    else
      match List.assoc_opt name C.Rewrite.methods with
      | Some m -> m
      | None -> failwith ("unknown method " ^ name)
  in
  let answers, stats =
    match method_ with
    | C.Rewrite.Rewritten_bottom_up (rewriting, options) ->
      let rw =
        span "rewrite" (fun () ->
            C.Rewrite.rewrite ~options rewriting program query)
      in
      let out = span "eval" (fun () -> C.Rewritten.run ~max_facts rw ~edb) in
      check_outcome out;
      (span "answers" (fun () -> C.Rewritten.answers rw out), out.Engine.Eval.stats)
    | m ->
      (* the winner of "auto" may be a method without a rewrite *)
      let r = span "eval" (fun () -> C.Rewrite.run ~max_facts m program query ~edb) in
      if r.C.Rewrite.status <> C.Rewrite.Ok then failwith "evaluation failed";
      (r.C.Rewrite.answers, r.C.Rewrite.stats)
  in
  let gc1 = Gc.quick_stat () in
  print_answers answers;
  if !tracing then begin
    let fields =
      List.rev_map (fun (n, ms) -> Printf.sprintf "%S: %.6f" n ms) !spans
      @ [
          Printf.sprintf "\"iterations\": %d" stats.Engine.Stats.iterations;
          Printf.sprintf "\"firings\": %d" stats.Engine.Stats.firings;
          Printf.sprintf "\"probes\": %d" stats.Engine.Stats.probes;
          Printf.sprintf "\"facts\": %d" stats.Engine.Stats.facts;
          Printf.sprintf "\"minor_words\": %.0f"
            (gc1.Gc.minor_words -. gc0.Gc.minor_words);
          Printf.sprintf "\"major_collections\": %d"
            (gc1.Gc.major_collections - gc0.Gc.major_collections);
        ]
    in
    Printf.printf "%%trace {%s}\n" (String.concat ", " fields)
  end

let reference path =
  let program, query, edb = load path in
  let rw = C.Rewrite.rewrite C.Rewrite.GMS program query in
  let out = C.Rewritten.run ~engine:`Seminaive_reference ~max_facts rw ~edb in
  check_outcome out;
  print_answers (C.Rewritten.answers rw out)

(* Hashtbl inserts and lookups over small allocated keys: the shape of
   the engine's own hot loops, so host slowdowns that hit the program
   (CPU steal, cache and memory contention) hit the probe alike. *)
let kernel () =
  let n = 300 in
  let h = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace h (i, string_of_int (i land 255)) [ i ]
  done;
  let s = ref 0 in
  for r = 0 to 3 do
    for i = 0 to n - 1 do
      match Hashtbl.find_opt h (i, string_of_int ((i + r) land 255)) with
      | Some l -> s := !s + List.length l
      | None -> ()
    done
  done;
  Sys.opaque_identity !s

let probe () =
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some _ ->
      let t0 = Unix.gettimeofday () in
      ignore (kernel ());
      Printf.printf "%.6f\n%!" ((Unix.gettimeofday () -. t0) *. 1e3);
      loop ()
  in
  loop ()

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "eval"; m; file ] -> eval m file
  | [ "eval"; m; file; "--trace" ] ->
    tracing := true;
    eval m file
  | [ "reference"; file ] -> reference file
  | [ "probe" ] -> probe ()
  | _ ->
    prerr_endline
      "usage: child (eval METHOD FILE [--trace] | reference FILE | probe)";
    exit 2
