(* Open-addressing hash tables keyed by interned tuples.

   The generic [Hashtbl.Make] tables this replaces spend most of a
   relation operation on machinery: a functor-call per hash, a cons cell
   per insertion, an option per lookup, and chained buckets with poor
   locality.  Tuple keys hash to an [int] ([Tuple.hash], FNV over the
   packed value ids), so a flat quadratic-probing table with a byte-coded
   slot state gets every stamp-table and index probe down to an array
   walk.  [get], [mem] and [add_if_absent] (when the table need not
   grow) allocate nothing: the probe loops below are top-level
   functions, not per-call closures, and the test suite measures it
   ("ttbl: probes do not allocate").

   Deletion uses tombstones ([Sdead]): a deleted slot keeps probe chains
   intact and is recycled by the next insertion of a colliding key.
   Tombstones count towards the load factor, so a delete-heavy table
   still resizes (and thereby purges them) before chains degrade. *)

type 'a t = {
  mutable keys : Tuple.t array;
  mutable vals : 'a array;
  mutable state : Bytes.t;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable size : int;  (* occupied slots *)
  mutable dead : int;  (* tombstoned slots *)
  dummy : 'a;  (* fills vacant value slots; never returned *)
}

let sempty = '\000'
let slive = '\001'
let sdead = '\002'

let rec pow2 n c = if c >= n then c else pow2 n (c * 2)

let create ?(initial = 16) dummy =
  let cap = pow2 (max 16 initial) 16 in
  {
    keys = Array.make cap [||];
    vals = Array.make cap dummy;
    state = Bytes.make cap sempty;
    mask = cap - 1;
    size = 0;
    dead = 0;
    dummy;
  }

let length t = t.size
let dummy t = t.dummy

(* quadratic probing: i, i+1, i+3, i+6, ... covers every slot of a
   power-of-two table exactly once *)

(* The probe loops are top-level functions over explicit arguments: a
   local [let rec] capturing the table and key would allocate a closure
   on every call. *)

let rec probe_find state keys mask key i step =
  let c = Bytes.unsafe_get state i in
  if c = sempty then -1
  else if c = slive && Tuple.equal (Array.unsafe_get keys i) key then i
  else probe_find state keys mask key ((i + step) land mask) (step + 1)

(* slot of [key], or -1 if absent *)
let find_slot t key = probe_find t.state t.keys t.mask key (Tuple.hash key land t.mask) 1

let rec probe_find_proj state keys mask positions tuple i step =
  let c = Bytes.unsafe_get state i in
  if c = sempty then -1
  else if c = slive && Tuple.equal_proj positions tuple (Array.unsafe_get keys i) then i
  else probe_find_proj state keys mask positions tuple ((i + step) land mask) (step + 1)

(* like {!find_slot} for the projection of [tuple] on [positions],
   without materializing the projected key *)
let find_slot_proj t positions tuple =
  probe_find_proj t.state t.keys t.mask positions tuple
    (Tuple.hash_proj positions tuple land t.mask)
    1

let rec probe_insert state keys mask key i step grave =
  let c = Bytes.unsafe_get state i in
  if c = sempty then if grave >= 0 then grave else i
  else if c = slive && Tuple.equal (Array.unsafe_get keys i) key then i
  else
    let grave = if c = sdead && grave < 0 then i else grave in
    probe_insert state keys mask key ((i + step) land mask) (step + 1) grave

(* slot where [key] lives or should be inserted (first tombstone on the
   probe path, else the terminating empty slot) *)
let insert_slot t key =
  probe_insert t.state t.keys t.mask key (Tuple.hash key land t.mask) 1 (-1)

let resize t =
  let old_keys = t.keys and old_vals = t.vals and old_state = t.state in
  let cap = (t.mask + 1) * if t.size * 4 > t.mask + 1 then 2 else 1 in
  t.keys <- Array.make cap [||];
  t.vals <- Array.make cap t.dummy;
  t.state <- Bytes.make cap sempty;
  t.mask <- cap - 1;
  t.size <- 0;
  t.dead <- 0;
  for i = 0 to Array.length old_keys - 1 do
    if Bytes.unsafe_get old_state i = slive then begin
      let key = old_keys.(i) in
      let s = insert_slot t key in
      t.keys.(s) <- key;
      t.vals.(s) <- old_vals.(i);
      Bytes.set t.state s slive;
      t.size <- t.size + 1
    end
  done

let maybe_grow t =
  (* keep load (live + tombstones) at most 1/2 *)
  if (t.size + t.dead + 1) * 2 > t.mask + 1 then resize t

let set_slot t s key v =
  if Bytes.get t.state s = sdead then t.dead <- t.dead - 1;
  t.keys.(s) <- key;
  t.vals.(s) <- v;
  Bytes.set t.state s slive;
  t.size <- t.size + 1

(* insert [key -> v] unless present; [true] iff inserted *)
let add_if_absent t key v =
  maybe_grow t;
  let s = insert_slot t key in
  if Bytes.get t.state s = slive then false
  else begin
    set_slot t s key v;
    true
  end

let replace t key v =
  maybe_grow t;
  let s = insert_slot t key in
  if Bytes.get t.state s = slive then t.vals.(s) <- v else set_slot t s key v

let mem t key = find_slot t key >= 0

(* [dummy] when absent — allocation-free; only valid when no stored
   value can be the dummy itself (e.g. a negative stamp, a private ref) *)
let get t key =
  let s = find_slot t key in
  if s >= 0 then Array.unsafe_get t.vals s else t.dummy

let get_proj t positions tuple =
  let s = find_slot_proj t positions tuple in
  if s >= 0 then Array.unsafe_get t.vals s else t.dummy

let find_opt t key =
  let s = find_slot t key in
  if s >= 0 then Some (Array.unsafe_get t.vals s) else None

let remove t key =
  let s = find_slot t key in
  if s >= 0 then begin
    Bytes.set t.state s sdead;
    t.keys.(s) <- [||];
    t.vals.(s) <- t.dummy;
    t.size <- t.size - 1;
    t.dead <- t.dead + 1
  end

let iter f t =
  for i = 0 to Array.length t.keys - 1 do
    if Bytes.unsafe_get t.state i = slive then f t.keys.(i) t.vals.(i)
  done

let reset t =
  let cap = 16 in
  t.keys <- Array.make cap [||];
  t.vals <- Array.make cap t.dummy;
  t.state <- Bytes.make cap sempty;
  t.mask <- cap - 1;
  t.size <- 0;
  t.dead <- 0
