(* Shared test utilities: parsing shortcuts, answer comparison, random
   generators for qcheck properties. *)

open Datalog
module C = Magic_core

let term = Parser.parse_term
let atom = Parser.parse_atom
let rule = Parser.parse_rule
let program src = fst (Parser.parse_program src)

let load src =
  let p, q = Parser.parse_program src in
  let p, facts = Parser.split_facts p in
  (p, Option.get q, Engine.Database.of_facts facts)

(* a file of the repository: dune runtest runs in _build/default/test,
   where it is one level up; dune exec runs from the root *)
let repo_file path =
  if Sys.file_exists (Filename.concat ".." path) then Filename.concat ".." path else path

(* the built CLI: from _build/default/test under dune runtest, from the
   root under dune exec *)
let cli =
  let exe = Filename.concat "bin" "magic_cli.exe" in
  let local = Filename.concat ".." exe in
  if Sys.file_exists local then local
  else Filename.concat "_build" (Filename.concat "default" exe)

(* run the CLI: (exit code, stdout, stderr) *)
let run_cli args =
  let out = Filename.temp_file "magic-cli" ".out" in
  let err = Filename.temp_file "magic-cli" ".err" in
  let code = Sys.command (Filename.quote_command cli args ~stdout:out ~stderr:err) in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let result = (code, read out, read err) in
  Sys.remove out;
  Sys.remove err;
  result

let tuple_list = Alcotest.testable (Fmt.list ~sep:Fmt.sp Engine.Tuple.pp) ( = )

let sorted_answers (r : C.Rewrite.result) =
  List.sort Engine.Tuple.compare r.C.Rewrite.answers

let run_method ?max_facts name program query edb =
  let m = List.assoc name C.Rewrite.methods in
  C.Rewrite.run ?max_facts m program query ~edb

(* every strategy's rewritten output must satisfy the structural
   invariants of Sections 4-7; a strategy may refuse a program outright
   (Counting.Inapplicable), which is not an invariant violation *)
let all_strategies = [ C.Rewrite.GMS; C.Rewrite.GSMS; C.Rewrite.GC; C.Rewrite.GSC ]

let lint_clean name program query =
  List.iter
    (fun strategy ->
      match C.Rewrite.rewrite strategy program query with
      | exception C.Counting.Inapplicable _ -> ()
      | rw -> (
        match Analysis.Rewrite_lint.check rw with
        | [] -> ()
        | d :: _ ->
          Alcotest.failf "%s: %s rewrite violates invariants: %a" name
            (C.Rewrite.rewriting_to_string strategy)
            Analysis.Diagnostic.pp d))
    all_strategies

let lint_ok program query =
  List.for_all
    (fun strategy ->
      match C.Rewrite.rewrite strategy program query with
      | exception C.Counting.Inapplicable _ -> true
      | rw -> Analysis.Rewrite_lint.check rw = [])
    all_strategies

(* rule-set equality modulo order: used to lock appendix outputs *)
let same_rule_set p1 p2 =
  let norm p = List.sort Rule.compare (Program.rules p) in
  List.equal Rule.equal (norm p1) (norm p2)

let check_rule_set msg expected actual =
  if not (same_rule_set expected actual) then
    Alcotest.failf "%s:@.expected:@.%a@.got:@.%a" msg Program.pp expected Program.pp
      actual

(* deterministic random ground terms / atoms for qcheck *)
let gen_const =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.map (fun i -> Term.Int i) QCheck2.Gen.small_int;
      QCheck2.Gen.map
        (fun i -> Term.Sym (Fmt.str "c%d" i))
        (QCheck2.Gen.int_bound 20);
    ]

let gen_var = QCheck2.Gen.map (fun i -> Fmt.str "V%d" i) (QCheck2.Gen.int_bound 6)

let gen_term =
  QCheck2.Gen.sized
  @@ QCheck2.Gen.fix (fun self n ->
         if n <= 1 then
           QCheck2.Gen.oneof [ gen_const; QCheck2.Gen.map (fun v -> Term.Var v) gen_var ]
         else
           QCheck2.Gen.oneof
             [
               gen_const;
               QCheck2.Gen.map (fun v -> Term.Var v) gen_var;
               QCheck2.Gen.map2
                 (fun f args -> Term.App (Fmt.str "f%d" f, args))
                 (QCheck2.Gen.int_bound 3)
                 (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 3) (self (n / 2)));
             ])

let gen_ground_term =
  QCheck2.Gen.sized
  @@ QCheck2.Gen.fix (fun self n ->
         if n <= 1 then gen_const
         else
           QCheck2.Gen.oneof
             [
               gen_const;
               QCheck2.Gen.map2
                 (fun f args -> Term.App (Fmt.str "f%d" f, args))
                 (QCheck2.Gen.int_bound 3)
                 (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 3) (self (n / 2)));
             ])

(* Property tests run at a fixed seed, so [dune runtest] is deterministic.
   MAGIC_QCHECK_SEED picks another seed and MAGIC_QCHECK_COUNT multiplies
   every property's count, for a wider search; a failure names both. *)
let qcheck_env name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 0 -> n
    | _ -> invalid_arg (Fmt.str "%s=%S is not a non-negative integer" name s))

let qcheck_seed = qcheck_env "MAGIC_QCHECK_SEED" 0x5eed
let qcheck_count_factor = max 1 (qcheck_env "MAGIC_QCHECK_COUNT" 1)

let qtest ?(count = 200) ?print name gen prop =
  let test = QCheck2.Test.make ~count:(count * qcheck_count_factor) ?print ~name gen prop in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) test
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with exn ->
        Alcotest.failf "%s@.reproduce with MAGIC_QCHECK_SEED=%d MAGIC_QCHECK_COUNT=%d"
          (Printexc.to_string exn) qcheck_seed qcheck_count_factor )

(* random edge sets over a small constant universe, for program-equivalence
   properties *)
let gen_edges =
  QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 30)
    (QCheck2.Gen.pair (QCheck2.Gen.int_bound 9) (QCheck2.Gen.int_bound 9))

let edges_to_facts ?(pred = "p") edges =
  List.map
    (fun (a, b) ->
      Atom.make pred [ Term.Sym (Fmt.str "n%d" a); Term.Sym (Fmt.str "n%d" b) ])
    edges

(* Random safe Datalog programs over IDB predicates i0, i1 and EDB
   predicates e0, e1, e2 (all binary): linear and nonlinear recursion,
   multiple IDB predicates, interleaved base literals.  Every rule is
   range-restricted and connected.  Shared by the strategy-equivalence
   and engine-equivalence properties. *)
let gen_random_rule =
  let open QCheck2.Gen in
  let* head_pred = map (fun b -> if b then "i0" else "i1") bool in
  let* shape = int_bound 4 in
  let base = map (fun i -> Fmt.str "e%d" i) (int_bound 2) in
  let* b1 = base in
  let* b2 = base in
  let* idb = map (fun b -> if b then "i0" else "i1") bool in
  return
    (match shape with
    | 0 -> Fmt.str "%s(X, Y) :- %s(X, Y)." head_pred b1
    | 1 -> Fmt.str "%s(X, Y) :- %s(X, Z), %s(Z, Y)." head_pred b1 idb
    | 2 -> Fmt.str "%s(X, Y) :- %s(X, Z), %s(Z, Y)." head_pred idb b1
    | 3 -> Fmt.str "%s(X, Y) :- %s(X, Z), %s(Z, W), %s(W, Y)." head_pred b1 idb b2
    | _ -> Fmt.str "%s(X, Y) :- %s(X, Z), %s(Z, Y)." head_pred b1 b2)

let gen_random_program =
  let open QCheck2.Gen in
  let* n = int_range 2 6 in
  let* rules = list_size (return n) gen_random_rule in
  (* both IDB predicates always have an exit rule *)
  let src =
    String.concat "\n" ([ "i0(X, Y) :- e0(X, Y)."; "i1(X, Y) :- e1(X, Y)." ] @ rules)
  in
  return src

let gen_random_edb =
  let open QCheck2.Gen in
  let edge pred =
    map2
      (fun a b ->
        Atom.make pred [ Term.Sym (Fmt.str "n%d" a); Term.Sym (Fmt.str "n%d" b) ])
      (int_bound 6) (int_bound 6)
  in
  let* e0 = list_size (int_range 0 10) (edge "e0") in
  let* e1 = list_size (int_range 0 10) (edge "e1") in
  let* e2 = list_size (int_range 0 10) (edge "e2") in
  return (e0 @ e1 @ e2)

let gen_random_case = QCheck2.Gen.pair gen_random_program gen_random_edb
