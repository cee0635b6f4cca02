(* Hand-rolled JSON emission shared by the bench harness and the CLI's
   --json modes, so both produce rows with an identical schema and the
   committed BENCH_engine.json can be diffed against CLI output. *)

let str s = Fmt.str "%S" s
let field k v = Fmt.str "%S: %s" k v
let obj fields = "{" ^ String.concat ", " fields ^ "}"
let arr rows = "[\n    " ^ String.concat ",\n    " rows ^ "\n  ]"
let arr_inline rows = "[" ^ String.concat ", " rows ^ "]"

let stats_fields (s : Stats.t) ~time_s =
  [
    field "iterations" (string_of_int s.Stats.iterations);
    field "firings" (string_of_int s.Stats.firings);
    field "facts" (string_of_int s.Stats.facts);
    field "rederivations" (string_of_int s.Stats.rederivations);
    field "probes" (string_of_int s.Stats.probes);
    field "time_s" (Fmt.str "%.6f" time_s);
  ]

let gc_fields (g : Stats.gc_counters) =
  [
    field "minor_words" (Fmt.str "%.0f" g.Stats.minor_words);
    field "major_words" (Fmt.str "%.0f" g.Stats.major_words);
    field "promoted_words" (Fmt.str "%.0f" g.Stats.promoted_words);
    field "minor_collections" (string_of_int g.Stats.minor_collections);
    field "major_collections" (string_of_int g.Stats.major_collections);
  ]

(* estimator calibration: the optimizer's predicted facts/probes next to
   what the run actually did, as observed/estimated ratios *)
let cost_fields (s : Stats.t) (est_facts, est_probes) =
  let ratio obs est = if est > 0. then float_of_int obs /. est else 0. in
  [
    field "est_facts" (Fmt.str "%.1f" est_facts);
    field "est_probes" (Fmt.str "%.1f" est_probes);
    field "est_facts_ratio" (Fmt.str "%.4f" (ratio s.Stats.facts est_facts));
    field "est_probes_ratio" (Fmt.str "%.4f" (ratio s.Stats.probes est_probes));
  ]

let result_row ~workload ~meth ~status ?gc ?cost stats ~time_s ~answers =
  obj
    ([ field "workload" (str workload); field "method" (str meth); field "status" (str status) ]
    @ stats_fields stats ~time_s
    @ (match cost with None -> [] | Some c -> cost_fields stats c)
    @ (match gc with None -> [] | Some g -> gc_fields g)
    @ [ field "answers" (string_of_int answers) ])
