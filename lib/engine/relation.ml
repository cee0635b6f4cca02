(* Single-storage relations with insertion stamps and tombstoned deletion.

   Every tuple is appended once to an insertion log and stamped with its
   log position; a flat open-addressing table ({!Ttbl}) maps each tuple
   to its stamp.  A stamp range [\[lo, hi)] then denotes a consistent
   past snapshot of the relation, which is what the semi-naive engine
   needs: "old", "delta" and "new" are ranges over one store instead of
   separate databases that must be re-hashed and merged every round.

   Deletion never reuses a stamp: removing a tuple marks its log slot
   dead in a side bitset, drops it from the stamp table and from every
   index bucket.  A subsequent re-insertion of the same tuple appends a
   fresh log entry with a fresh stamp, so it lands beyond every watermark
   taken before the re-insertion — exactly the discipline the incremental
   maintenance layer needs to tell "the post-deletion state" ([\[0, w)])
   apart from "this transaction's insertions" ([\[w, size)]) without
   copying the relation.

   The dead bitset is the out-of-band deletion marker: unlike the former
   sentinel tuple compared by physical equality, it cannot collide with
   any user fact (interning shares structurally equal tuples, so no
   constructed tuple is physically unique) and costs one byte per log
   slot.

   Index buckets hold [(stamp, tuple)] pairs in descending stamp order
   (newest first), so a range-restricted probe skips the too-new prefix
   and stops at the first too-old entry.  Buckets are mutable list refs,
   so maintaining an index on insert is a single hash lookup (find +
   in-place push); the bound positions of each index are precomputed for
   the same reason.  Probes resolve the index for a binding pattern by
   physical equality first — the executors pass the same compile-time
   pattern array on every probe — so the common case is a pointer walk
   over a one- or two-element list. *)

type bucket = (int * Tuple.t) list
type index = bucket ref Ttbl.t

type t = {
  arity : int;
  stamps : int Ttbl.t;  (* live tuple -> insertion stamp; -1 = absent *)
  mutable log : Tuple.t array;  (* tuples in insertion order *)
  mutable dead : Bytes.t;  (* dead.(stamp) = '\001' iff the slot was removed *)
  mutable len : int;
  mutable indexes : (bool array * int array * index) list;
}

let create arity =
  {
    arity;
    stamps = Ttbl.create (-1);
    log = [||];
    dead = Bytes.empty;
    len = 0;
    indexes = [];
  }

let arity r = r.arity
let cardinal r = Ttbl.length r.stamps
let size r = r.len
let mem r t = Ttbl.get r.stamps t >= 0

let mem_in r ~lo ~hi t =
  let stamp = Ttbl.get r.stamps t in
  stamp >= 0 && lo <= stamp && stamp < hi

let live r stamp = Bytes.unsafe_get r.dead stamp = '\000'

let bound_positions pattern =
  let acc = ref [] in
  Array.iteri (fun i b -> if b then acc := i :: !acc) pattern;
  Array.of_list (List.rev !acc)

(* probe by projection ({!Ttbl.get_proj}); the key array is only
   materialized when this bucket is new *)
let index_add idx positions stamp t =
  let bucket = Ttbl.get_proj idx positions t in
  if bucket != Ttbl.dummy idx then bucket := (stamp, t) :: !bucket
  else
    Ttbl.replace idx (Array.map (fun i -> t.(i)) positions) (ref [ (stamp, t) ])

let push r t =
  if r.len = Array.length r.log then begin
    let cap = max 16 (2 * r.len) in
    let log = Array.make cap t in
    Array.blit r.log 0 log 0 r.len;
    r.log <- log;
    let dead = Bytes.make cap '\000' in
    Bytes.blit r.dead 0 dead 0 r.len;
    r.dead <- dead
  end;
  r.log.(r.len) <- t;
  Bytes.set r.dead r.len '\000';
  r.len <- r.len + 1

let add r t =
  if Array.length t <> r.arity then
    invalid_arg
      (Fmt.str "Relation.add: tuple %a has arity %d, expected %d" Tuple.pp t
         (Array.length t) r.arity);
  let stamp = r.len in
  if not (Ttbl.add_if_absent r.stamps t stamp) then false
  else begin
    push r t;
    List.iter (fun (_, positions, idx) -> index_add idx positions stamp t) r.indexes;
    true
  end

(* stamps are unique per bucket: drop the single matching entry and stop,
   sharing the unscanned tail instead of rebuilding the whole list *)
let rec drop_stamp stamp = function
  | [] -> []
  | (s, _) :: rest when s = stamp -> rest
  | entry :: rest -> entry :: drop_stamp stamp rest

let remove r t =
  let stamp = Ttbl.get r.stamps t in
  if stamp < 0 then false
  else begin
    Ttbl.remove r.stamps t;
    Bytes.set r.dead stamp '\001';
    List.iter
      (fun (_, positions, idx) ->
        let bucket = Ttbl.get_proj idx positions t in
        if bucket != Ttbl.dummy idx then
          match drop_stamp stamp !bucket with
          | [] -> Ttbl.remove idx (Array.map (fun i -> t.(i)) positions)
          | remaining -> bucket := remaining)
      r.indexes;
    true
  end

let iter_in r ~lo ~hi f =
  let hi = min hi r.len in
  for i = max lo 0 to hi - 1 do
    if live r i then f r.log.(i)
  done

let iter f r = iter_in r ~lo:0 ~hi:r.len f

let fold f r init =
  let acc = ref init in
  iter (fun t -> acc := f t !acc) r;
  !acc

let to_list r = fold List.cons r []

let pattern_equal a b = Array.length a = Array.length b && Array.for_all2 Bool.equal a b

(* physical equality first: executors pass the same pattern array on
   every probe of a compiled scan *)
let rec find_index pattern = function
  | [] -> None
  | (p, _, idx) :: rest ->
    if p == pattern || pattern_equal p pattern then Some idx else find_index pattern rest

let ensure_index r pattern =
  match find_index pattern r.indexes with
  | Some idx -> idx
  | None ->
    let idx = Ttbl.create (ref []) in
    let positions = bound_positions pattern in
    for i = 0 to r.len - 1 do
      if live r i then index_add idx positions i r.log.(i)
    done;
    r.indexes <- (pattern, positions, idx) :: r.indexes;
    idx

let prepare_index r pattern =
  if Array.length pattern <> r.arity then
    invalid_arg "Relation.prepare_index: pattern arity mismatch";
  if not (Array.for_all not pattern) then ignore (ensure_index r pattern)

(* newest first: skip stamps >= hi, stop below lo *)
let rec iter_bucket ~lo ~hi f = function
  | [] -> ()
  | (stamp, t) :: rest ->
    if stamp >= hi then iter_bucket ~lo ~hi f rest
    else if stamp >= lo then begin
      f t;
      iter_bucket ~lo ~hi f rest
    end

let iter_index idx ~key ~lo ~hi f =
  let bucket = Ttbl.get idx key in
  if bucket != Ttbl.dummy idx then iter_bucket ~lo ~hi f !bucket

let iter_matching_in r ~pattern ~key ~lo ~hi f =
  if Array.length pattern <> r.arity then
    invalid_arg "Relation.iter_matching_in: pattern arity mismatch";
  if Array.for_all not pattern then iter_in r ~lo ~hi f
  else iter_index (ensure_index r pattern) ~key ~lo ~hi f

let indexed r pattern =
  Array.for_all not pattern || Option.is_some (find_index pattern r.indexes)

let probe_in r ~pattern ~key ~lo ~hi f =
  if Array.length pattern <> r.arity then
    invalid_arg "Relation.probe_in: pattern arity mismatch";
  if Array.for_all not pattern then iter_in r ~lo ~hi f
  else
    match find_index pattern r.indexes with
    | Some idx -> iter_index idx ~key ~lo ~hi f
    | None -> invalid_arg "Relation.probe_in: no index prepared for this pattern"

let iter_matching r ~pattern ~key f = iter_matching_in r ~pattern ~key ~lo:0 ~hi:max_int f

let lookup r ~pattern ~key =
  let acc = ref [] in
  iter_matching r ~pattern ~key (fun t -> acc := t :: !acc);
  !acc

let copy r =
  let r' = create r.arity in
  iter (fun t -> ignore (add r' t)) r;
  r'

(* Takes ownership of [log] and [dead]: a bulk load hands over the
   arrays it decoded instead of paying a copy of each. *)
let of_log ~arity ~log ~dead =
  let len = Array.length log in
  if Bytes.length dead <> len then
    invalid_arg "Relation.of_log: dead bitset length mismatch";
  (* pre-size the stamp table for the live population, at the load
     limit {!Ttbl} keeps (1/2): one allocation, no doubling rehashes *)
  let live_slots = ref 0 in
  Bytes.iter (fun c -> if c = '\000' then incr live_slots) dead;
  let stamps = Ttbl.create ~initial:(2 * !live_slots) (-1) in
  let r = { arity; stamps; log; dead; len; indexes = [] } in
  for stamp = 0 to len - 1 do
    let t = Array.unsafe_get log stamp in
    if Array.length t <> arity then
      invalid_arg
        (Fmt.str "Relation.of_log: tuple %a has arity %d, expected %d" Tuple.pp t
           (Array.length t) arity);
    if live r stamp && not (Ttbl.add_if_absent r.stamps t stamp) then
      invalid_arg (Fmt.str "Relation.of_log: duplicate live tuple %a" Tuple.pp t)
  done;
  r

let pp ppf r =
  let items = List.sort Tuple.compare (to_list r) in
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any "; ") Tuple.pp) items
