open Datalog

type t = Value.t array

let of_list ts =
  Array.of_list
    (List.map
       (fun t ->
         if not (Term.is_ground t) then invalid_arg "Tuple.of_list: non-ground term";
         Value.intern t)
       ts)

let find_of_list ts =
  let rec go acc = function
    | [] -> Some (Array.of_list (List.rev acc))
    | t :: rest -> (
      match Value.find t with Some v -> go (v :: acc) rest | None -> None)
  in
  go [] ts

let to_list t = List.map Value.extern (Array.to_list t)
let arity = Array.length

(* top-level loops, not local closures: [equal] and [equal_proj] run on
   every hash-table probe and must not allocate *)
let rec equal_from a b i =
  i >= Array.length a
  || (Value.equal (Array.unsafe_get a i) (Array.unsafe_get b i) && equal_from a b (i + 1))

let equal a b = a == b || (Array.length a = Array.length b && equal_from a b 0)

(* Structural order (via the denoted terms): keeps answer lists sorted
   the same way they were before interning, independent of intern order. *)
let compare a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= Array.length a then 0
      else
        let c = Value.compare_structural a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

(* FNV-1a over the packed ids: no polymorphic hashing, no term walks. *)
let hash a =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor Value.to_int a.(i)) * 0x01000193
  done;
  !h land max_int

(* the hash/equality a projection of [t] on [positions] WOULD have, so
   index maintenance can probe for a bucket without materializing the
   key ({!Relation}); must agree with {!hash}/{!equal} on the
   materialized projection *)
let hash_proj positions t =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length positions - 1 do
    h := (!h lxor Value.to_int t.(Array.unsafe_get positions i)) * 0x01000193
  done;
  !h land max_int

let rec equal_proj_from positions t key i =
  i >= Array.length positions
  || Value.equal key.(i) t.(Array.unsafe_get positions i)
     && equal_proj_from positions t key (i + 1)

let equal_proj positions t key =
  Array.length key = Array.length positions && equal_proj_from positions t key 0

let project positions t = Array.of_list (List.map (fun i -> t.(i)) positions)

(* ground arguments and pairwise distinct variables: a tuple matches as
   soon as its ground positions do *)
let rec linear seen = function
  | [] -> true
  | Term.Var v :: rest -> (not (List.mem v seen)) && linear (v :: seen) rest
  | arg :: rest -> Term.is_ground arg && linear seen rest

let matcher args =
  match find_of_list (List.filter Term.is_ground args) with
  | None -> None
  | Some key ->
    let positions =
      Array.of_list
        (List.concat (List.mapi (fun i a -> if Term.is_ground a then [ i ] else []) args))
    in
    if linear [] args then Some (fun t -> equal_proj positions t key)
    else
      Some
        (fun t ->
          equal_proj positions t key
          && Option.is_some (Subst.match_list args (to_list t) Subst.empty))

let pp ppf t =
  Fmt.pf ppf "(%a)" (Fmt.list ~sep:(Fmt.any ", ") Value.pp) (Array.to_list t)

let to_string t = Fmt.str "%a" pp t

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Tbl = Hashtbl.Make (Hashed)
module Set = Set.Make (Ord)
