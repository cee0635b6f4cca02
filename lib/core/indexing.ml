open Datalog

type encoding = Numeric | Path

type t = {
  encoding : encoding;
  m : int;
  t_base : int;
  iv : string;
  kv : string;
  hv : string;
}

let fields = 3

let rule_count (adorned : Adorn.t) = List.length adorned.Adorn.rules

let position_base (adorned : Adorn.t) =
  List.fold_left
    (fun acc ar -> max acc (List.length ar.Adorn.rule.Rule.body))
    1 adorned.Adorn.rules

let create ?(encoding = Path) adorned (ar : Adorn.adorned_rule) =
  let used = Rule.vars ar.Adorn.rule in
  let fresh base =
    let rec go candidate = if List.mem candidate used then go (candidate ^ "0") else candidate in
    go base
  in
  {
    encoding;
    m = rule_count adorned;
    t_base = position_base adorned;
    iv = fresh "I";
    kv = fresh "K";
    hv = fresh "H";
  }

let guard_indices ix = [ Term.Var ix.iv; Term.Var ix.kv; Term.Var ix.hv ]

let body_indices ix ~rule_number ~position =
  match ix.encoding with
  | Numeric ->
    [
      Term.Add (Term.Var ix.iv, Term.Int 1);
      Term.Add (Term.Mul (Term.Var ix.kv, Term.Int ix.m), Term.Int rule_number);
      Term.Add (Term.Mul (Term.Var ix.hv, Term.Int ix.t_base), Term.Int position);
    ]
  | Path ->
    [
      Term.App ("s", [ Term.Var ix.iv ]);
      Term.App ("k", [ Term.Int rule_number; Term.Var ix.kv ]);
      Term.App ("h", [ Term.Int position; Term.Var ix.hv ]);
    ]

let seed_indices ix =
  match ix.encoding with
  | Numeric -> [ Term.Int 0; Term.Int 0; Term.Int 0 ]
  | Path -> [ Term.Int 0; Term.Sym "e"; Term.Sym "e" ]

