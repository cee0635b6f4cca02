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

   An index bucket is a flat array of stamps in ascending order, appended
   in place (doubling when full), with the tuples read from
   [log.(stamp)]: one [int] per entry instead of a pair in a cons cell
   behind a ref.  A probe walks it newest first, skipping stamps [>= hi]
   and stopping at the first one below [lo].  A removal installs a fresh
   array without the stamp, so a scan in progress, which holds the
   array and count it started with, never sees its entries move: appends
   land beyond that count, and removals leave its array untouched (the
   removed tuple stays in the log).  Callbacks may therefore add to the
   relation being scanned, and rederivation removes from the relation it
   scans.  Buckets are mutated only by writers, which the serving layer
   runs under its write lock ({!Snapshot}).  The bound positions of each
   index are precomputed, and probes resolve the index for a binding
   pattern by physical equality first — the executors pass the same
   compile-time pattern array on every probe. *)

type bucket = { mutable st : int array; mutable n : int }
(* [st.(0 .. n-1)]: the stamps of the bucket's live tuples, ascending *)

type index = bucket Ttbl.t

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

let new_index () = Ttbl.create { st = [||]; n = 0 }

(* probe by projection ({!Ttbl.get_proj}); the key array is only
   materialized when this bucket is new.  Stamps are appended in
   increasing order, so the bucket stays sorted. *)
let index_add idx positions stamp t =
  let b = Ttbl.get_proj idx positions t in
  if b != Ttbl.dummy idx then begin
    if b.n = Array.length b.st then begin
      let st = Array.make (max 2 (2 * b.n)) 0 in
      Array.blit b.st 0 st 0 b.n;
      b.st <- st
    end;
    b.st.(b.n) <- stamp;
    b.n <- b.n + 1
  end
  else Ttbl.replace idx (Array.map (fun i -> t.(i)) positions) { st = [| stamp |]; n = 1 }

(* a fresh array without [stamp]: a scan holding the old one keeps
   seeing what it started with *)
let index_remove idx positions stamp t =
  let b = Ttbl.get_proj idx positions t in
  if b != Ttbl.dummy idx then
    if b.n = 1 && b.st.(0) = stamp then
      Ttbl.remove idx (Array.map (fun i -> t.(i)) positions)
    else begin
      let st = Array.make (Array.length b.st) 0 in
      let j = ref 0 in
      for i = 0 to b.n - 1 do
        let s = b.st.(i) in
        if s <> stamp then begin
          st.(!j) <- s;
          incr j
        end
      done;
      b.st <- st;
      b.n <- !j
    end

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

(* log and index [t] under the stamp the stamp table just gave it *)
let append r t =
  let stamp = r.len in
  push r t;
  List.iter (fun (_, positions, idx) -> index_add idx positions stamp t) r.indexes

let add r t =
  if Array.length t <> r.arity then
    invalid_arg
      (Fmt.str "Relation.add: tuple %a has arity %d, expected %d" Tuple.pp t
         (Array.length t) r.arity);
  Ttbl.add_if_absent r.stamps t r.len
  && begin
    append r t;
    true
  end

(* a tuple of the wrong arity is never a member, so [add] rejects it *)
let add_borrowed r t = (not (Ttbl.mem r.stamps t)) && add r (Array.copy t)

let remove r t =
  let stamp = Ttbl.get r.stamps t in
  if stamp < 0 then false
  else begin
    Ttbl.remove r.stamps t;
    Bytes.set r.dead stamp '\001';
    List.iter (fun (_, positions, idx) -> index_remove idx positions stamp t) r.indexes;
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

(* top-level loops rather than [Array.for_all]/[for_all2], which
   allocate a closure per call: every probe asks them *)
let rec free_from pattern i =
  i >= Array.length pattern
  || ((not (Array.unsafe_get pattern i)) && free_from pattern (i + 1))

let all_free pattern = free_from pattern 0

let rec equal_from a b i =
  i >= Array.length a || (Bool.equal a.(i) b.(i) && equal_from a b (i + 1))

let pattern_equal a b = Array.length a = Array.length b && equal_from a b 0

let no_index = new_index ()

(* physical equality first: executors pass the same pattern array on
   every probe of a compiled scan.  Returns [no_index] rather than an
   option, so a probe allocates nothing. *)
let rec find_index pattern = function
  | [] -> no_index
  | (p, _, idx) :: rest ->
    if p == pattern || pattern_equal p pattern then idx else find_index pattern rest

let ensure_index r pattern =
  let idx = find_index pattern r.indexes in
  if idx != no_index then idx
  else begin
    let idx = new_index () in
    let positions = bound_positions pattern in
    for i = 0 to r.len - 1 do
      if live r i then index_add idx positions i r.log.(i)
    done;
    r.indexes <- (pattern, positions, idx) :: r.indexes;
    idx
  end

let prepare_index r pattern =
  if Array.length pattern <> r.arity then
    invalid_arg "Relation.prepare_index: pattern arity mismatch";
  if not (all_free pattern) then ignore (ensure_index r pattern)

(* first position of the ascending [st.(0 .. n-1)] holding a stamp
   [>= hi], or [n] *)
let rec first_from st hi a b =
  if a >= b then a
  else
    let m = (a + b) lsr 1 in
    if Array.unsafe_get st m < hi then first_from st hi (m + 1) b else first_from st hi a m

(* newest first from position [i] down, stopping below [lo]; tuples are
   read from the log, whose slots outlive a removal *)
let rec iter_stamps r st lo f i =
  if i >= 0 then begin
    let stamp = Array.unsafe_get st i in
    if stamp >= lo then begin
      f (Array.unsafe_get r.log stamp);
      iter_stamps r st lo f (i - 1)
    end
  end

(* the array and count are read once: what the callback adds lands
   beyond [n], and a removal installs a fresh array *)
let iter_index r idx ~key ~lo ~hi f =
  let b = Ttbl.get idx key in
  let st = b.st and n = b.n in
  if n > 0 then
    let top = if Array.unsafe_get st (n - 1) < hi then n else first_from st hi 0 n in
    iter_stamps r st lo f (top - 1)

let iter_matching_in r ~pattern ~key ~lo ~hi f =
  if Array.length pattern <> r.arity then
    invalid_arg "Relation.iter_matching_in: pattern arity mismatch";
  if all_free pattern then iter_in r ~lo ~hi f
  else iter_index r (ensure_index r pattern) ~key ~lo ~hi f

let indexed r pattern = all_free pattern || find_index pattern r.indexes != no_index

let probe_in r ~pattern ~key ~lo ~hi f =
  if Array.length pattern <> r.arity then
    invalid_arg "Relation.probe_in: pattern arity mismatch";
  if all_free pattern then iter_in r ~lo ~hi f
  else
    let idx = find_index pattern r.indexes in
    if idx == no_index then invalid_arg "Relation.probe_in: no index prepared for this pattern"
    else iter_index r idx ~key ~lo ~hi f

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
