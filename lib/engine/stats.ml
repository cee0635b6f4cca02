type t = {
  mutable iterations : int;
  mutable firings : int;
  mutable facts : int;
  mutable rederivations : int;
  mutable probes : int;
  mutable subqueries : int;
}

let create () =
  { iterations = 0; firings = 0; facts = 0; rederivations = 0; probes = 0; subqueries = 0 }

let record_fact s ~is_new =
  s.firings <- s.firings + 1;
  if is_new then s.facts <- s.facts + 1 else s.rederivations <- s.rederivations + 1

(* Allocation and collection counters, deltas of [Gc.quick_stat]: the
   memory half of a benchmark row.  Word counts are floats because that
   is what the Gc module reports (they overflow int on 32-bit). *)
type gc_counters = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_now () =
  let g = Gc.quick_stat () in
  {
    minor_words = g.Gc.minor_words;
    major_words = g.Gc.major_words;
    promoted_words = g.Gc.promoted_words;
    minor_collections = g.Gc.minor_collections;
    major_collections = g.Gc.major_collections;
  }

let gc_delta ~before ~after =
  {
    minor_words = after.minor_words -. before.minor_words;
    major_words = after.major_words -. before.major_words;
    promoted_words = after.promoted_words -. before.promoted_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
  }

let pp ppf s =
  Fmt.pf ppf
    "iterations=%d firings=%d facts=%d rederivations=%d probes=%d subqueries=%d"
    s.iterations s.firings s.facts s.rederivations s.probes s.subqueries
