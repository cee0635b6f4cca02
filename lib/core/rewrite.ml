
type rewriting = GMS | GSMS | GC | GSC

type options = {
  sip : Sip.strategy;
  simplify : bool;
  semijoin : bool;
}

let default_options = { sip = Sip.full_left_to_right; simplify = true; semijoin = false }

let rewriting_of_string = function
  | "gms" | "magic" -> Some GMS
  | "gsms" | "supplementary" -> Some GSMS
  | "gc" | "counting" -> Some GC
  | "gsc" | "supplementary-counting" -> Some GSC
  | _ -> None

let rewriting_to_string = function
  | GMS -> "gms"
  | GSMS -> "gsms"
  | GC -> "gc"
  | GSC -> "gsc"

let rewrite ?(options = default_options) rewriting program query =
  let adorned = Adorn.adorn ~strategy:options.sip program query in
  let rewritten =
    match rewriting with
    | GMS -> Magic_sets.rewrite ~simplify:options.simplify adorned
    | GSMS -> Supplementary.rewrite ~simplify:options.simplify adorned
    | GC -> Counting.rewrite ~simplify:options.simplify adorned
    | GSC -> Sup_counting.rewrite ~simplify:options.simplify adorned
  in
  if options.semijoin then Semijoin.optimize rewritten else rewritten

type method_ =
  | Original of [ `Naive | `Seminaive ]
  | Rewritten_bottom_up of rewriting * options
  | Top_down of [ `SLD | `Tabled ]

type status = Ok | Diverged | Unsafe of string | Inapplicable of string

let status_name = function
  | Ok -> "ok"
  | Diverged -> "diverged"
  | Unsafe _ -> "unsafe"
  | Inapplicable _ -> "inapplicable"

type result = { answers : Engine.Tuple.t list; stats : Engine.Stats.t; status : status }

let run ?max_facts ?max_iterations method_ program query ~edb =
  match method_ with
  | Original engine -> begin
    try
      let out =
        match engine with
        | `Naive -> Engine.Eval.naive ?max_facts ?max_iterations program ~edb
        | `Seminaive -> Engine.Eval.seminaive ?max_facts ?max_iterations program ~edb
      in
      {
        answers = Engine.Eval.answers out query;
        stats = out.Engine.Eval.stats;
        status = (if out.Engine.Eval.diverged then Diverged else Ok);
      }
    with Engine.Solve.Unsafe msg ->
      { answers = []; stats = Engine.Stats.create (); status = Unsafe msg }
  end
  | Rewritten_bottom_up (rewriting, options) -> begin
    try
      let rw = rewrite ~options rewriting program query in
      let out = Rewritten.run ?max_facts ?max_iterations rw ~edb in
      {
        answers = Rewritten.answers rw out;
        stats = out.Engine.Eval.stats;
        status = (if out.Engine.Eval.diverged then Diverged else Ok);
      }
    with
    | Engine.Solve.Unsafe msg ->
      { answers = []; stats = Engine.Stats.create (); status = Unsafe msg }
    | Counting.Inapplicable msg ->
      { answers = []; stats = Engine.Stats.create (); status = Inapplicable msg }
  end
  | Top_down mode -> begin
    try
      let r =
        match mode with
        | `SLD -> Engine.Topdown.sld ?max_depth:max_iterations program ~edb query
        | `Tabled -> Engine.Topdown.tabled ?max_passes:max_iterations program ~edb query
      in
      {
        answers = r.Engine.Topdown.answers;
        stats = r.Engine.Topdown.stats;
        status = (if r.Engine.Topdown.complete then Ok else Diverged);
      }
    with Engine.Solve.Unsafe msg ->
      { answers = []; stats = Engine.Stats.create (); status = Unsafe msg }
  end

let methods =
  [
    ("naive", Original `Naive);
    ("seminaive", Original `Seminaive);
    ("sld", Top_down `SLD);
    ("tabled", Top_down `Tabled);
    ("gms", Rewritten_bottom_up (GMS, default_options));
    ("gsms", Rewritten_bottom_up (GSMS, default_options));
    ("gms-chain", Rewritten_bottom_up (GMS, { default_options with sip = Sip.chain_left_to_right }));
    ("gsms-chain", Rewritten_bottom_up (GSMS, { default_options with sip = Sip.chain_left_to_right }));
    ("gms-bound", Rewritten_bottom_up (GMS, { default_options with sip = Sip.head_only }));
    ("gsms-bound", Rewritten_bottom_up (GSMS, { default_options with sip = Sip.head_only }));
    ("gc", Rewritten_bottom_up (GC, default_options));
    ("gsc", Rewritten_bottom_up (GSC, default_options));
    ("gc-sj", Rewritten_bottom_up (GC, { default_options with semijoin = true }));
    ("gsc-sj", Rewritten_bottom_up (GSC, { default_options with semijoin = true }));
  ]
