(* Single-storage relations with insertion stamps and tombstoned deletion.

   Every tuple is appended once to an insertion log and stamped with its
   log position.  A stamp range [\[lo, hi)] then denotes a consistent
   past snapshot of the relation, which is what the semi-naive engine
   needs: "old", "delta" and "new" are ranges over one store instead of
   separate databases that must be re-hashed and merged every round.

   The stamp table that finds a tuple's stamp stores stamps, not keys:
   one [int array] of open-addressing slots, each [empty], [tomb] or a
   live stamp, probed quadratically over a power-of-two capacity.  A
   probe compares the tuple against [log.(stamp)], so the table holds no
   key array, no value array and no state bytes, and an insertion writes
   one immediate [int] (no [caml_modify]).  A rehash walks the log over
   the live stamps.  Load, tombstones included, stays at most 1/2; a
   rehash doubles the capacity unless tombstones were most of the load,
   in which case it purges them at the same capacity.  Probes are
   top-level loops over explicit arguments, so [mem], [mem_in] and a
   duplicate [add_borrowed] allocate nothing.

   Deletion never reuses a stamp: removing a tuple marks its log slot
   dead in a side bitset, tombstones its stamp-table slot and drops it
   from every index bucket.  A subsequent re-insertion of the same tuple
   appends a fresh log entry with a fresh stamp, so it lands beyond every
   watermark taken before the re-insertion — exactly the discipline the
   incremental maintenance layer needs to tell "the post-deletion state"
   ([\[0, w)]) apart from "this transaction's insertions" ([\[w, size)])
   without copying the relation.  The dead bitset cannot collide with
   any user fact and costs one byte per log slot.

   An index directory is one open-addressing array of bucket records,
   allocated once per distinct projected key and carrying that key's
   hash, which a probe compares first; empty and tombstoned slots are
   the physical sentinels [vacant] and [grave].  Index maintenance
   hashes the bound positions of the inserted tuple in place, so the key
   array is only materialized when a bucket is first created.  A
   bucket's stamps are a flat ascending array, appended in place
   (doubling when full), with the tuples read from [log.(stamp)].  A
   probe walks it newest first, skipping stamps [>= hi] and stopping at
   the first one below [lo].  A removal installs a fresh array without
   the stamp, so a scan in progress, which holds the array and count it
   started with, never sees its entries move: appends land beyond that
   count, and removals leave its array untouched (the removed tuple stays
   in the log).  Callbacks may therefore add to the relation being
   scanned, and rederivation removes from the relation it scans.  Buckets
   are mutated only by writers, which the serving layer runs under its
   write lock ({!Snapshot}).  Probes resolve the index for a binding
   pattern by physical equality first — the executors pass the same
   compile-time pattern array on every probe. *)

type bucket = { key : Tuple.t; hash : int; mutable st : int array; mutable n : int }
(* [key]: the projection on the index's bound positions, [hash] its
   {!Tuple.hash}; [st.(0 .. n-1)]: the stamps of the bucket's live
   tuples, ascending *)

(* directory sentinels, told apart by physical equality; their hashes
   are negative, so no probe hash (always [>= 0]) matches them *)
let vacant = { key = [||]; hash = -1; st = [||]; n = 0 }
let grave = { key = [||]; hash = -2; st = [||]; n = 0 }

type index = {
  positions : int array;  (* the pattern's bound positions, ascending *)
  mutable dir : bucket array;  (* power-of-two capacity *)
  mutable keys : int;  (* live buckets *)
  mutable graves : int;
}

(* stamp-table slot states; a live slot holds its stamp *)
let empty = -1
let tomb = -2

type t = {
  arity : int;
  mutable slots : int array;  (* the stamp table; power-of-two capacity *)
  mutable live : int;  (* live stamps = cardinal *)
  mutable tombs : int;
  mutable log : Tuple.t array;  (* tuples in insertion order *)
  mutable dead : Bytes.t;  (* dead.(stamp) = '\001' iff the slot was removed *)
  mutable len : int;
  mutable indexes : (bool array * index) list;
}

let rec pow2 n c = if c >= n then c else pow2 n (c * 2)

let create arity =
  {
    arity;
    slots = Array.make 16 empty;
    live = 0;
    tombs = 0;
    log = [||];
    dead = Bytes.empty;
    len = 0;
    indexes = [];
  }

let arity r = r.arity
let cardinal r = r.live
let size r = r.len
let is_live r stamp = Bytes.unsafe_get r.dead stamp = '\000'

(* Quadratic probing: i, i+1, i+3, i+6, ... visits every slot of a
   power-of-two table once.  The loops are top-level functions: a local
   [let rec] capturing the table and key would allocate a closure per
   call. *)

(* the slot holding [t]'s stamp, or [lnot] the slot an insertion of [t]
   takes (the first tombstone on the probe path, else the empty slot
   that ends it) *)
let rec locate slots mask log t i step tomb_at =
  let s = Array.unsafe_get slots i in
  if s = empty then lnot (if tomb_at >= 0 then tomb_at else i)
  else if s >= 0 && Tuple.equal (Array.unsafe_get log s) t then i
  else
    locate slots mask log t ((i + step) land mask) (step + 1)
      (if s = tomb && tomb_at < 0 then i else tomb_at)

let slot_of r t =
  let mask = Array.length r.slots - 1 in
  locate r.slots mask r.log t (Tuple.hash t land mask) 1 (-1)

let rec place slots mask i step stamp =
  if Array.unsafe_get slots i = empty then Array.unsafe_set slots i stamp
  else place slots mask ((i + step) land mask) (step + 1) stamp

(* rebuild the stamp table at [cap] slots from the live log stamps *)
let rehash r cap =
  let slots = Array.make cap empty and mask = cap - 1 in
  for stamp = 0 to r.len - 1 do
    if is_live r stamp then
      place slots mask (Tuple.hash (Array.unsafe_get r.log stamp) land mask) 1 stamp
  done;
  r.slots <- slots;
  r.tombs <- 0

let reserve r =
  let cap = Array.length r.slots in
  if (r.live + r.tombs + 1) * 2 > cap then rehash r (if r.live * 4 > cap then 2 * cap else cap)

let mem r t = slot_of r t >= 0

let mem_in r ~lo ~hi t =
  let i = slot_of r t in
  i >= 0
  &&
  let stamp = Array.unsafe_get r.slots i in
  lo <= stamp && stamp < hi

let bound_positions pattern =
  let acc = ref [] in
  Array.iteri (fun i b -> if b then acc := i :: !acc) pattern;
  Array.of_list (List.rev !acc)

let new_index positions = { positions; dir = Array.make 16 vacant; keys = 0; graves = 0 }

(* the slot of the bucket keyed by [t]'s projection on [positions], or
   [lnot] the slot a new bucket for it takes *)
let rec locate_proj dir mask positions t h i step grave_at =
  let b = Array.unsafe_get dir i in
  if b == vacant then lnot (if grave_at >= 0 then grave_at else i)
  else if b.hash = h && Tuple.equal_proj positions t b.key then i
  else
    locate_proj dir mask positions t h ((i + step) land mask) (step + 1)
      (if b == grave && grave_at < 0 then i else grave_at)

let bucket_slot idx t h =
  let mask = Array.length idx.dir - 1 in
  locate_proj idx.dir mask idx.positions t h (h land mask) 1 (-1)

(* the bucket keyed by [key] itself, or [vacant] *)
let rec find_bucket dir mask key h i step =
  let b = Array.unsafe_get dir i in
  if b == vacant || (b.hash = h && Tuple.equal b.key key) then b
  else find_bucket dir mask key h ((i + step) land mask) (step + 1)

let rec place_bucket dir mask i step b =
  if Array.unsafe_get dir i == vacant then Array.unsafe_set dir i b
  else place_bucket dir mask ((i + step) land mask) (step + 1) b

let reserve_bucket idx =
  let cap = Array.length idx.dir in
  if (idx.keys + idx.graves + 1) * 2 > cap then begin
    let cap = if idx.keys * 4 > cap then 2 * cap else cap in
    let dir = Array.make cap vacant and mask = cap - 1 in
    Array.iter
      (fun b -> if b != vacant && b != grave then place_bucket dir mask (b.hash land mask) 1 b)
      idx.dir;
    idx.dir <- dir;
    idx.graves <- 0
  end

(* Stamps are appended in increasing order, so the bucket stays sorted. *)
let index_add idx stamp t =
  reserve_bucket idx;
  let h = Tuple.hash_proj idx.positions t in
  let i = bucket_slot idx t h in
  if i >= 0 then begin
    let b = Array.unsafe_get idx.dir i in
    if b.n = Array.length b.st then begin
      let st = Array.make (max 2 (2 * b.n)) 0 in
      Array.blit b.st 0 st 0 b.n;
      b.st <- st
    end;
    b.st.(b.n) <- stamp;
    b.n <- b.n + 1
  end
  else begin
    let i = lnot i in
    if idx.dir.(i) == grave then idx.graves <- idx.graves - 1;
    idx.dir.(i) <-
      { key = Array.map (fun p -> t.(p)) idx.positions; hash = h; st = [| stamp |]; n = 1 };
    idx.keys <- idx.keys + 1
  end

(* a fresh array without [stamp]: a scan holding the old one keeps
   seeing what it started with *)
let index_remove idx stamp t =
  let i = bucket_slot idx t (Tuple.hash_proj idx.positions t) in
  if i >= 0 then begin
    let b = idx.dir.(i) in
    if b.n = 1 && b.st.(0) = stamp then begin
      idx.dir.(i) <- grave;
      idx.keys <- idx.keys - 1;
      idx.graves <- idx.graves + 1
    end
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
  end

let rec index_all indexes stamp t =
  match indexes with
  | [] -> ()
  | (_, idx) :: rest ->
    index_add idx stamp t;
    index_all rest stamp t

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

(* one probe: a duplicate returns at once; a new tuple takes the slot
   the probe ended on, then is logged ([t] itself, or a copy when the
   caller keeps [t]) and indexed *)
let insert r t ~borrowed =
  if Array.length t <> r.arity then
    invalid_arg
      (Fmt.str "Relation.add: tuple %a has arity %d, expected %d" Tuple.pp t
         (Array.length t) r.arity);
  reserve r;
  let i = slot_of r t in
  i < 0
  && begin
    let i = lnot i in
    if Array.unsafe_get r.slots i = tomb then r.tombs <- r.tombs - 1;
    let stamp = r.len in
    Array.unsafe_set r.slots i stamp;
    r.live <- r.live + 1;
    let t = if borrowed then Array.copy t else t in
    push r t;
    index_all r.indexes stamp t;
    true
  end

let add r t = insert r t ~borrowed:false
let add_borrowed r t = insert r t ~borrowed:true

let remove r t =
  let i = slot_of r t in
  i >= 0
  && begin
    let stamp = r.slots.(i) in
    r.slots.(i) <- tomb;
    r.live <- r.live - 1;
    r.tombs <- r.tombs + 1;
    Bytes.set r.dead stamp '\001';
    List.iter (fun (_, idx) -> index_remove idx stamp t) r.indexes;
    true
  end

let iter_in r ~lo ~hi f =
  let hi = min hi r.len in
  for i = max lo 0 to hi - 1 do
    if is_live r i then f r.log.(i)
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

let no_index = new_index [||]

(* physical equality first: executors pass the same pattern array on
   every probe of a compiled scan.  Returns [no_index] rather than an
   option, so a probe allocates nothing. *)
let rec find_index pattern = function
  | [] -> no_index
  | (p, idx) :: rest ->
    if p == pattern || pattern_equal p pattern then idx else find_index pattern rest

let ensure_index r pattern =
  let idx = find_index pattern r.indexes in
  if idx != no_index then idx
  else begin
    let idx = new_index (bound_positions pattern) in
    for i = 0 to r.len - 1 do
      if is_live r i then index_add idx i r.log.(i)
    done;
    r.indexes <- (pattern, idx) :: r.indexes;
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
  let h = Tuple.hash key and mask = Array.length idx.dir - 1 in
  let b = find_bucket idx.dir mask key h (h land mask) 1 in
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

(* With nothing removed the stamps are already dense: copy the arrays.
   Otherwise compact, re-stamping the live tuples in log order. *)
let copy r =
  if r.live = r.len then
    {
      r with
      slots = Array.copy r.slots;
      log = Array.copy r.log;
      dead = Bytes.copy r.dead;
      indexes = [];
    }
  else begin
    let r' = create r.arity in
    iter (fun t -> ignore (add r' t)) r;
    r'
  end

(* Takes ownership of [log] and [dead]: a bulk load hands over the
   arrays it decoded instead of paying a copy of each. *)
let of_log ~arity ~log ~dead =
  let len = Array.length log in
  if Bytes.length dead <> len then
    invalid_arg "Relation.of_log: dead bitset length mismatch";
  (* pre-size the stamp table for the live population at the 1/2 load
     limit: one allocation, no doubling rehashes *)
  let live_slots = ref 0 in
  Bytes.iter (fun c -> if c = '\000' then incr live_slots) dead;
  let slots = Array.make (pow2 (2 * !live_slots) 16) empty in
  let r = { arity; slots; live = 0; tombs = 0; log; dead; len; indexes = [] } in
  for stamp = 0 to len - 1 do
    let t = Array.unsafe_get log stamp in
    if Array.length t <> arity then
      invalid_arg
        (Fmt.str "Relation.of_log: tuple %a has arity %d, expected %d" Tuple.pp t
           (Array.length t) arity);
    if is_live r stamp then begin
      let i = slot_of r t in
      if i >= 0 then invalid_arg (Fmt.str "Relation.of_log: duplicate live tuple %a" Tuple.pp t);
      slots.(lnot i) <- stamp;
      r.live <- r.live + 1
    end
  done;
  r

let pp ppf r =
  let items = List.sort Tuple.compare (to_list r) in
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any "; ") Tuple.pp) items
