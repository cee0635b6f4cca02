open Datalog
open Helpers

let tup l = Engine.Tuple.of_list (List.map term l)

let test_add_mem () =
  let r = Engine.Relation.create 2 in
  Alcotest.(check bool) "new" true (Engine.Relation.add r (tup [ "a"; "b" ]));
  Alcotest.(check bool) "dup" false (Engine.Relation.add r (tup [ "a"; "b" ]));
  Alcotest.(check bool) "mem" true (Engine.Relation.mem r (tup [ "a"; "b" ]));
  Alcotest.(check bool) "not mem" false (Engine.Relation.mem r (tup [ "b"; "a" ]));
  Alcotest.(check int) "cardinal" 1 (Engine.Relation.cardinal r)

let test_arity_check () =
  let r = Engine.Relation.create 2 in
  Alcotest.(check bool)
    "arity mismatch raises" true
    (try
       ignore (Engine.Relation.add r (tup [ "a" ]));
       false
     with Invalid_argument _ -> true)

let test_lookup () =
  let r = Engine.Relation.create 2 in
  List.iter
    (fun (a, b) -> ignore (Engine.Relation.add r (tup [ a; b ])))
    [ ("a", "b"); ("a", "c"); ("d", "b") ];
  let hits =
    Engine.Relation.lookup r ~pattern:[| true; false |] ~key:(tup [ "a" ])
  in
  Alcotest.(check int) "prefix lookup" 2 (List.length hits);
  let hits2 =
    Engine.Relation.lookup r ~pattern:[| false; true |] ~key:(tup [ "b" ])
  in
  Alcotest.(check int) "suffix lookup" 2 (List.length hits2);
  let all = Engine.Relation.lookup r ~pattern:[| false; false |] ~key:[||] in
  Alcotest.(check int) "scan" 3 (List.length all)

let test_index_updates () =
  (* indexes built before inserts must see subsequent inserts *)
  let r = Engine.Relation.create 2 in
  ignore (Engine.Relation.add r (tup [ "a"; "b" ]));
  ignore (Engine.Relation.lookup r ~pattern:[| true; false |] ~key:(tup [ "a" ]));
  ignore (Engine.Relation.add r (tup [ "a"; "c" ]));
  Alcotest.(check int)
    "index sees later insert" 2
    (List.length (Engine.Relation.lookup r ~pattern:[| true; false |] ~key:(tup [ "a" ])))

let prop_lookup_is_filter =
  qtest ~count:100 "lookup = filter on projection"
    (QCheck2.Gen.pair gen_edges (QCheck2.Gen.int_bound 9))
    (fun (edges, k) ->
      let r = Engine.Relation.create 2 in
      List.iter
        (fun (a, b) ->
          ignore
            (Engine.Relation.add r
               (tup [ Fmt.str "n%d" a; Fmt.str "n%d" b ])))
        edges;
      let key = tup [ Fmt.str "n%d" k ] in
      let by_index =
        List.sort Engine.Tuple.compare
          (Engine.Relation.lookup r ~pattern:[| true; false |] ~key)
      in
      let by_scan =
        List.sort Engine.Tuple.compare
          (List.filter
             (fun t -> Engine.Value.equal t.(0) key.(0))
             (Engine.Relation.to_list r))
      in
      List.equal Engine.Tuple.equal by_index by_scan)

(* index coherence under arbitrary interleavings of adds, removes and
   re-adds: an index built before the mutations must keep agreeing with
   a filtered scan on every probe key, and removed entries must not
   resurface *)
let prop_index_coherent_under_removal =
  let gen_ops =
    QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 30)
      (QCheck2.Gen.triple QCheck2.Gen.bool (QCheck2.Gen.int_bound 5)
         (QCheck2.Gen.int_bound 5))
  in
  qtest ~count:100 "index = scan under remove/re-add"
    (QCheck2.Gen.pair gen_edges gen_ops)
    (fun (edges, ops) ->
      let r = Engine.Relation.create 2 in
      let n i = Fmt.str "n%d" i in
      (* build both indexes up front so every mutation must maintain them *)
      ignore (Engine.Relation.lookup r ~pattern:[| true; false |] ~key:(tup [ n 0 ]));
      ignore (Engine.Relation.lookup r ~pattern:[| false; true |] ~key:(tup [ n 0 ]));
      List.iter (fun (a, b) -> ignore (Engine.Relation.add r (tup [ n a; n b ]))) edges;
      List.iter
        (fun (add, a, b) ->
          let t = tup [ n a; n b ] in
          if add then ignore (Engine.Relation.add r t)
          else ignore (Engine.Relation.remove r t))
        ops;
      let scan = Engine.Relation.to_list r in
      let coherent pattern pos k =
        let key = tup [ n k ] in
        let by_index =
          List.sort Engine.Tuple.compare (Engine.Relation.lookup r ~pattern ~key)
        in
        let by_scan =
          List.sort Engine.Tuple.compare
            (List.filter (fun t -> Engine.Value.equal t.(pos) key.(0)) scan)
        in
        List.equal Engine.Tuple.equal by_index by_scan
      in
      List.for_all
        (fun k -> coherent [| true; false |] 0 k && coherent [| false; true |] 1 k)
        [ 0; 1; 2; 3; 4; 5 ])

let test_remove () =
  let r = Engine.Relation.create 2 in
  ignore (Engine.Relation.add r (tup [ "a"; "b" ]));
  ignore (Engine.Relation.add r (tup [ "a"; "c" ]));
  Alcotest.(check bool) "removed" true (Engine.Relation.remove r (tup [ "a"; "b" ]));
  Alcotest.(check bool) "absent now" false (Engine.Relation.mem r (tup [ "a"; "b" ]));
  Alcotest.(check bool) "remove absent" false (Engine.Relation.remove r (tup [ "a"; "b" ]));
  Alcotest.(check int) "cardinal excludes removed" 1 (Engine.Relation.cardinal r);
  Alcotest.(check int)
    "iteration skips removed" 1
    (List.length (Engine.Relation.to_list r));
  Alcotest.(check int)
    "index skips removed" 0
    (List.length
       (Engine.Relation.lookup r ~pattern:[| true; true |] ~key:(tup [ "a"; "b" ])))

let test_remove_readd_stamps () =
  (* a removed tuple's stamp is retired: re-insertion gets a fresh stamp,
     so a delta window [w, size) sees the re-added tuple *)
  let r = Engine.Relation.create 2 in
  ignore (Engine.Relation.add r (tup [ "a"; "b" ]));
  ignore (Engine.Relation.add r (tup [ "c"; "d" ]));
  ignore (Engine.Relation.remove r (tup [ "a"; "b" ]));
  let w = Engine.Relation.size r in
  Alcotest.(check bool) "re-added as new" true (Engine.Relation.add r (tup [ "a"; "b" ]));
  Alcotest.(check bool)
    "not in the pre-watermark range" false
    (Engine.Relation.mem_in r ~lo:0 ~hi:w (tup [ "a"; "b" ]));
  Alcotest.(check bool)
    "in the delta range" true
    (Engine.Relation.mem_in r ~lo:w ~hi:(Engine.Relation.size r) (tup [ "a"; "b" ]));
  let in_delta = ref [] in
  Engine.Relation.iter_in r ~lo:w ~hi:(Engine.Relation.size r) (fun t ->
      in_delta := t :: !in_delta);
  Alcotest.(check int) "delta iteration sees exactly it" 1 (List.length !in_delta);
  Alcotest.(check int) "cardinal" 2 (Engine.Relation.cardinal r)

let test_remove_copy () =
  let r = Engine.Relation.create 2 in
  ignore (Engine.Relation.add r (tup [ "a"; "b" ]));
  ignore (Engine.Relation.add r (tup [ "c"; "d" ]));
  ignore (Engine.Relation.remove r (tup [ "a"; "b" ]));
  let c = Engine.Relation.copy r in
  Alcotest.(check int) "copy drops tombstones" 1 (Engine.Relation.cardinal c);
  Alcotest.(check bool) "copy mem" true (Engine.Relation.mem c (tup [ "c"; "d" ]))

(* [of_log] continues a relation from a log.  Two logs are fed to it:
   - the live log, which the snapshot writer emits: live tuples in stamp
     order behind an all-zero bitset, so the stamps are renumbered
     densely;
   - the tombstoned log, which older snapshots hold: every slot ever
     stamped, removed ones marked dead, rebuilt here from the history.
   Either way the rebuilt relation must iterate the same tuples in the
   same order, and after the same further adds and removes report the
   same results, iterate alike, split alike at a watermark taken at the
   rebuild, and answer index probes in the same bucket order. *)
let gen_of_log_case =
  let gen_ops =
    QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 30)
      (QCheck2.Gen.triple QCheck2.Gen.bool (QCheck2.Gen.int_bound 5)
         (QCheck2.Gen.int_bound 5))
  in
  QCheck2.Gen.triple gen_edges gen_ops gen_ops

let of_log_continues ~tombstoned (edges, before, after) =
  let module R = Engine.Relation in
  let n i = Fmt.str "n%d" i in
  let apply r (add, a, b) =
    let t = tup [ n a; n b ] in
    if add then R.add r t else R.remove r t
  in
  (* the history as a log: every successful add appends a slot, every
     successful remove marks its tuple's live slot dead *)
  let r = R.create 2 in
  let slots = ref [] in
  let record ((add, a, b) as op) =
    if apply r op then
      if add then slots := (tup [ n a; n b ], ref false) :: !slots
      else
        let t = tup [ n a; n b ] in
        snd (List.find (fun (u, d) -> (not !d) && Engine.Tuple.equal u t) !slots) := true
  in
  List.iter (fun (a, b) -> record (true, a, b)) edges;
  List.iter record before;
  let log, dead =
    if tombstoned then
      let slots = Array.of_list (List.rev !slots) in
      ( Array.map fst slots,
        Bytes.init (Array.length slots) (fun i ->
            if !(snd slots.(i)) then '\001' else '\000') )
    else
      let live = Array.of_list (R.to_list r |> List.rev) in
      (live, Bytes.make (Array.length live) '\000')
  in
  let tuples = List.equal Engine.Tuple.equal in
  let r' = R.of_log ~arity:2 ~log ~dead in
  let rebuilt_size = if tombstoned then R.size r else R.cardinal r in
  let same_order = tuples (R.to_list r) (R.to_list r') in
  let w = R.size r and w' = R.size r' in
  let same_results = List.for_all (fun op -> apply r op = apply r' op) after in
  let range x ~lo ~hi =
    let acc = ref [] in
    R.iter_in x ~lo ~hi (fun t -> acc := t :: !acc);
    !acc
  in
  let probe x k = R.lookup x ~pattern:[| true; false |] ~key:(tup [ n k ]) in
  w' = rebuilt_size && same_order && same_results
  && R.cardinal r' = R.cardinal r
  && R.size r' - w' = R.size r - w
  && tuples (R.to_list r) (R.to_list r')
  && tuples (range r ~lo:0 ~hi:w) (range r' ~lo:0 ~hi:w')
  && tuples (range r ~lo:w ~hi:(R.size r)) (range r' ~lo:w' ~hi:(R.size r'))
  && List.for_all (fun k -> tuples (probe r k) (probe r' k)) [ 0; 1; 2; 3; 4; 5 ]

let prop_of_log_live =
  qtest ~count:100 "of_log: live log continues as r" gen_of_log_case
    (of_log_continues ~tombstoned:false)

let prop_of_log_tombstoned =
  qtest ~count:100 "of_log: tombstoned log continues as r" gen_of_log_case
    (of_log_continues ~tombstoned:true)

(* Index buckets against a list model.  A history of adds, removes and
   re-adds is interleaved with probes at random patterns, keys and stamp
   ranges; every probe, through [iter_matching_in] and through
   [probe_in], must see the model's live tuples of that range whose
   projection is the key, newest first (oldest first for the all-free
   pattern, which walks the log).  Two indexes exist before the
   history, so every mutation maintains them; the others are built by
   the first probe on them.  A probe may also remove and re-add each
   tuple it visits and, on a bucket, remove the oldest tuple it has yet
   to visit: the traversal must still see exactly the tuples it started
   with. *)
type bucket_op =
  | Badd of int * int
  | Bremove of int * int
  | Bprobe of int * (int * int) * (int * int) * bool

let patterns = [| [| false; false |]; [| true; false |]; [| false; true |]; [| true; true |] |]

let gen_bucket_ops =
  let open QCheck2.Gen in
  let v = int_bound 4 in
  let range = pair (int_bound 30) (oneofl [ 0; 5; 10; 20; 30; max_int ]) in
  list_size (int_range 0 60)
    (frequency
       [
         (4, map2 (fun a b -> Badd (a, b)) v v);
         (2, map2 (fun a b -> Bremove (a, b)) v v);
         ( 2,
           map (fun (p, k, rg, m) -> Bprobe (p, k, rg, m)) (quad (int_bound 3) (pair v v) range bool)
         );
       ])

let print_bucket_op = function
  | Badd (a, b) -> Fmt.str "+(%d,%d)" a b
  | Bremove (a, b) -> Fmt.str "-(%d,%d)" a b
  | Bprobe (p, (a, b), (lo, hi), m) -> Fmt.str "?p%d(%d,%d)[%d,%d)%s" p a b lo hi (if m then "!" else "")

(* the live entries of a model (stamp, tuple, live flag; newest first)
   in [\[lo, hi)] whose projection on [pattern] is [u]'s, in probe
   order: newest first, or oldest first for the all-free pattern, which
   walks the log *)
let model_matches entries pattern u lo hi =
  let hits =
    List.filter_map
      (fun (stamp, v, live) ->
        let on_key = ref true in
        Array.iteri
          (fun i b -> if b && not (Engine.Value.equal u.(i) v.(i)) then on_key := false)
          pattern;
        if !live && lo <= stamp && stamp < hi && !on_key then Some v else None)
      entries
  in
  if Array.for_all not pattern then List.rev hits else hits

let buckets_match_model ops =
  let module R = Engine.Relation in
  let t a b = tup [ Fmt.str "n%d" a; Fmt.str "n%d" b ] in
  let r = R.create 2 in
  R.prepare_index r patterns.(1);
  R.prepare_index r patterns.(3);
  (* (stamp, tuple, live), newest first *)
  let model = ref [] in
  let present u = List.exists (fun (_, v, live) -> !live && Engine.Tuple.equal u v) !model in
  let ok = ref true in
  let add u =
    let fresh = not (present u) in
    if R.add r u <> fresh then ok := false;
    if fresh then model := (List.length !model, u, ref true) :: !model
  in
  let remove u =
    let was = present u in
    if R.remove r u <> was then ok := false;
    List.iter (fun (_, v, live) -> if Engine.Tuple.equal u v then live := false) !model
  in
  List.iter
    (function
      | Badd (a, b) -> add (t a b)
      | Bremove (a, b) -> remove (t a b)
      | Bprobe (p, (a, b), (lo, hi), mutate) ->
        let pattern = patterns.(p) in
        let u = t a b in
        let key = Array.of_list (List.filteri (fun i _ -> pattern.(i)) (Array.to_list u)) in
        let want = model_matches !model pattern u lo hi in
        let oldest =
          match List.rev want with
          | v :: _ when Array.exists Fun.id pattern -> [ v ]
          | _ -> []
        in
        let seen = ref [] in
        R.iter_matching_in r ~pattern ~key ~lo ~hi (fun v ->
            seen := v :: !seen;
            if mutate then begin
              remove v;
              add v;
              List.iter remove oldest
            end);
        if List.rev !seen <> want then ok := false;
        let want = model_matches !model pattern u lo hi in
        let seen = ref [] in
        R.prepare_index r pattern;
        R.probe_in r ~pattern ~key ~lo ~hi (fun v -> seen := v :: !seen);
        if List.rev !seen <> want then ok := false)
    ops;
  !ok

let prop_buckets_match_model =
  qtest ~count:300
    ~print:(fun ops -> String.concat " " (List.map print_bucket_op ops))
    "buckets = list model, newest first" gen_bucket_ops buckets_match_model

(* Relation against a list model.  A run is a history of adds (owned
   and borrowed), removals, re-adds, copies and reloads through
   [of_log]; after every step the relation must agree with a model that
   keeps every stamped entry, newest first, with its live flag:
   [cardinal], [size], the iteration order, and the exact stamp of
   every live tuple ([mem_in] on its one-stamp range), with removed
   tuples absent.  [Check] steps probe [mem_in] on a random range, and
   [iter_matching_in] and [probe_in] on a random pattern, key and
   range.  An index on the first position is prepared from the start
   (and again after every copy or reload, which drop indexes), so
   every insertion and removal maintains it.  A copy must leave the
   original as it was. *)
type model_op =
  | Add of int * int
  | Borrow of int * int  (* add_borrowed through one reused buffer *)
  | Remove of int * int
  | Drop of int  (* remove the k-th live tuple, oldest first, k mod cardinal *)
  | Copy
  | Reload of bool  (* of_log; [true]: the tombstoned log, [false]: live only *)
  | Check of int * (int * int) * (int * int)  (* pattern, tuple, stamp range *)

let print_model_op = function
  | Add (a, b) -> Fmt.str "+(%d,%d)" a b
  | Borrow (a, b) -> Fmt.str "+b(%d,%d)" a b
  | Remove (a, b) -> Fmt.str "-(%d,%d)" a b
  | Drop k -> Fmt.str "drop%d" k
  | Copy -> "copy"
  | Reload dead -> if dead then "reload-dead" else "reload-live"
  | Check (p, (a, b), (lo, hi)) -> Fmt.str "?p%d(%d,%d)[%d,%d)" p a b lo hi

let model_values = Array.init 320 (fun i -> Engine.Value.intern (Term.Int i))

type model = {
  mutable entries : (int * Engine.Tuple.t * bool ref) list;  (* newest first *)
  mutable next : int;
  live_of : (Engine.Tuple.t, int * bool ref) Hashtbl.t;  (* live tuple -> stamp, flag *)
}

let model_add m u =
  (not (Hashtbl.mem m.live_of u))
  && begin
    let flag = ref true in
    m.entries <- (m.next, u, flag) :: m.entries;
    Hashtbl.replace m.live_of u (m.next, flag);
    m.next <- m.next + 1;
    true
  end

let model_remove m u =
  match Hashtbl.find_opt m.live_of u with
  | Some (_, flag) ->
    flag := false;
    Hashtbl.remove m.live_of u;
    true
  | None -> false

let model_live m = List.filter_map (fun (_, u, f) -> if !f then Some u else None) m.entries

(* a copy and a live-log reload renumber the live tuples densely *)
let model_compact m =
  let live = List.rev (model_live m) in
  m.entries <- [];
  m.next <- 0;
  Hashtbl.reset m.live_of;
  List.iter (fun u -> ignore (model_add m u)) live

(* runs [ops], comparing the whole relation with the model after every
   [full_every]-th step and at every [Check] *)
let relation_matches_model ?(full_every = 1) ?(prepared = [ 1 ]) ops =
  let module R = Engine.Relation in
  let t a b = [| model_values.(a); model_values.(b) |] in
  let tuples = List.equal Engine.Tuple.equal in
  let prepare r = List.iter (fun p -> R.prepare_index r patterns.(p)) prepared in
  let r = ref (R.create 2) in
  prepare !r;
  let m = { entries = []; next = 0; live_of = Hashtbl.create 64 } in
  let buf = t 0 0 in
  let copies = ref [] in
  let ok = ref true in
  let expect b = if not b then ok := false in
  let whole () =
    let seen = ref [] in
    R.iter (fun u -> seen := u :: !seen) !r;
    expect (R.cardinal !r = Hashtbl.length m.live_of);
    expect (R.size !r = m.next);
    expect (tuples !seen (model_live m));
    List.iter
      (fun (stamp, u, live) ->
        if !live then expect (R.mem_in !r ~lo:stamp ~hi:(stamp + 1) u)
        else if not (Hashtbl.mem m.live_of u) then expect (not (R.mem !r u)))
      m.entries
  in
  List.iteri
    (fun step op ->
      (match op with
      | Add (a, b) ->
        let u = t a b in
        expect (R.add !r u = model_add m u)
      | Borrow (a, b) ->
        buf.(0) <- model_values.(a);
        buf.(1) <- model_values.(b);
        expect (R.add_borrowed !r buf = model_add m (t a b));
        (* the relation must have kept a copy, not the buffer *)
        buf.(0) <- model_values.(b);
        buf.(1) <- model_values.(a)
      | Remove (a, b) ->
        let u = t a b in
        expect (R.remove !r u = model_remove m u)
      | Drop k -> (
        match List.rev (model_live m) with
        | [] -> ()
        | live ->
          let u = List.nth live (k mod List.length live) in
          expect (R.remove !r u && model_remove m u))
      | Copy ->
        let c = R.copy !r in
        copies := (!r, R.to_list !r) :: !copies;
        r := c;
        model_compact m;
        prepare !r
      | Reload dead ->
        let log, dead =
          if dead then
            let slots = Array.of_list (List.rev m.entries) in
            ( Array.map (fun (_, u, _) -> u) slots,
              Bytes.init (Array.length slots) (fun i ->
                  let _, _, live = slots.(i) in
                  if !live then '\000' else '\001') )
          else begin
            model_compact m;
            let live = Array.of_list (List.rev (model_live m)) in
            (live, Bytes.make (Array.length live) '\000')
          end
        in
        r := R.of_log ~arity:2 ~log ~dead;
        prepare !r
      | Check (p, (a, b), (lo, hi)) ->
        let pattern = patterns.(p) and u = t a b in
        let key = Array.of_list (List.filteri (fun i _ -> pattern.(i)) (Array.to_list u)) in
        let in_range =
          match Hashtbl.find_opt m.live_of u with
          | Some (stamp, _) -> lo <= stamp && stamp < hi
          | None -> false
        in
        expect (R.mem !r u = Hashtbl.mem m.live_of u);
        expect (R.mem_in !r ~lo ~hi u = in_range);
        let want = model_matches m.entries pattern u lo hi in
        let seen = ref [] in
        R.iter_matching_in !r ~pattern ~key ~lo ~hi (fun v -> seen := v :: !seen);
        expect (tuples (List.rev !seen) want);
        let seen = ref [] in
        R.prepare_index !r pattern;
        R.probe_in !r ~pattern ~key ~lo ~hi (fun v -> seen := v :: !seen);
        expect (tuples (List.rev !seen) want));
      if (step + 1) mod full_every = 0 || (match op with Check _ -> true | _ -> false) then
        whole ())
    ops;
  whole ();
  List.iter
    (fun (c, was) ->
      expect (tuples (R.to_list c) was);
      expect (R.cardinal c = List.length was);
      expect (List.for_all (R.mem c) was))
    !copies;
  !ok

(* narrow universes make re-adds frequent; [Drop] keeps the live set
   small while fresh tuples arrive, so tombstones pile up until a
   rehash purges them at the same capacity *)
let gen_model_ops =
  let open QCheck2.Gen in
  int_range 2 16 >>= fun w ->
  let v = int_bound (w - 1) in
  let range = pair (int_bound 60) (oneofl [ 0; 10; 30; 60; 120; max_int ]) in
  list_size (int_range 0 240)
    (frequency
       [
         (4, map2 (fun a b -> Add (a, b)) v v);
         (4, map2 (fun a b -> Borrow (a, b)) v v);
         (2, map2 (fun a b -> Remove (a, b)) v v);
         (5, map (fun k -> Drop k) nat);
         (1, return Copy);
         (1, map (fun d -> Reload d) bool);
         (3, map3 (fun p u rg -> Check (p, u, rg)) (int_bound 3) (pair v v) range);
       ])

let prop_relation_model =
  qtest ~count:300
    ~print:(fun ops -> String.concat " " (List.map print_model_op ops))
    "relation = list model" gen_model_ops
    (fun ops -> relation_matches_model ops)

(* One long run.  First, churn at the initial capacity: each fresh
   tuple is added and removed three steps later, so three tuples stay
   live while tombstones accumulate until a rehash purges them at the
   same capacity; then 40,000 distinct tuples, with a lagging
   remove and re-add, take the stamp table and the all-bound index
   directory past 2^16 slots; then most of them are removed and the
   rest reloaded and copied. *)
let test_relation_model_large () =
  let pair i = (i mod 200, i / 200) in
  let add i = if i land 1 = 0 then Add (fst (pair i), snd (pair i)) else Borrow (fst (pair i), snd (pair i)) in
  let churn =
    List.concat_map
      (fun i ->
        add (40_000 + i)
        :: (if i >= 3 then [ Remove (fst (pair (39_997 + i)), snd (pair (39_997 + i))) ] else []))
      (List.init 60 Fun.id)
  in
  let grow =
    List.concat_map
      (fun i ->
        add i
        :: (if i mod 7 = 3 then [ Remove (fst (pair (i - 3)), snd (pair (i - 3))) ] else [])
        @ if i mod 11 = 5 && i >= 50 then [ add (i - 50) ] else [])
      (List.init 40_000 Fun.id)
  in
  let probes =
    List.init 16 (fun k -> Check (k mod 4, pair (k * 2477), ((k * 613) mod 20_000, max_int)))
  in
  let shrink = List.init 36_000 (fun i -> Remove (fst (pair i), snd (pair i))) in
  let ops =
    churn @ grow @ probes @ [ Reload true; Add (7, 250) ] @ probes @ shrink
    @ [ Copy; Reload false; Add (3, 260) ] @ probes
  in
  Alcotest.(check bool)
    "matches the model" true
    (relation_matches_model ~full_every:5000 ~prepared:[ 1; 3 ] ops)

(* probes on a populated relation allocate nothing: [mem], [mem_in], a
   duplicate [add_borrowed] and a [probe_in] into an existing bucket *)
let test_relation_no_alloc () =
  let module R = Engine.Relation in
  let n = 1000 in
  let present = Array.init n (fun i -> tup [ Fmt.str "k%d" i; "v" ]) in
  let absent = Array.init n (fun i -> tup [ Fmt.str "k%d" i; "w" ]) in
  let keys = Array.map (fun t -> [| t.(0) |]) present in
  let pattern = [| true; false |] in
  let r = R.create 2 in
  R.prepare_index r pattern;
  Array.iter (fun t -> ignore (R.add r t)) present;
  let per_call calls f =
    let before = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let mems =
    per_call (2 * n) (fun () ->
        for i = 0 to n - 1 do
          ignore (R.mem r present.(i));
          ignore (R.mem r absent.(i))
        done)
  in
  let mem_ins =
    per_call (2 * n) (fun () ->
        for i = 0 to n - 1 do
          ignore (R.mem_in r ~lo:0 ~hi:(n / 2) present.(i));
          ignore (R.mem_in r ~lo:0 ~hi:n absent.(i))
        done)
  in
  let buf = Array.copy present.(0) in
  let dups =
    per_call n (fun () ->
        for i = 0 to n - 1 do
          Array.blit present.(i) 0 buf 0 2;
          ignore (R.add_borrowed r buf)
        done)
  in
  let hits = ref 0 in
  let count _ = incr hits in
  let probes =
    per_call n (fun () ->
        for i = 0 to n - 1 do
          R.probe_in r ~pattern ~key:keys.(i) ~lo:0 ~hi:max_int count
        done)
  in
  Alcotest.(check int) "duplicates not stored" n (R.cardinal r);
  Alcotest.(check int) "every probe hits" n !hits;
  List.iter
    (fun (what, words) ->
      if words >= 1.0 then Alcotest.failf "%s allocates %.2f words per call" what words)
    [ ("mem", mems); ("mem_in", mem_ins); ("duplicate add_borrowed", dups); ("probe_in", probes) ]

let test_database () =
  let db = Engine.Database.create () in
  ignore (Engine.Database.add_fact db (atom "p(a, b)"));
  ignore (Engine.Database.add_fact db (atom "p(b, c)"));
  ignore (Engine.Database.add_fact db (atom "q(a)"));
  Alcotest.(check int) "total" 3 (Engine.Database.total db);
  Alcotest.(check int) "per pred" 2 (Engine.Database.cardinal db (Symbol.make "p" 2));
  Alcotest.(check bool) "mem" true (Engine.Database.mem db (atom "p(a, b)"));
  let copy = Engine.Database.copy db in
  ignore (Engine.Database.add_fact copy (atom "q(z)"));
  Alcotest.(check int) "copy isolated" 3 (Engine.Database.total db);
  Alcotest.(check bool)
    "non-ground rejected" true
    (try
       ignore (Engine.Database.add_fact db (atom "p(X, b)"));
       false
     with Invalid_argument _ -> true)

let test_database_arith_normalized () =
  let db = Engine.Database.create () in
  ignore (Engine.Database.add_fact db (Atom.make "n" [ term "1 + 2" ]));
  Alcotest.(check bool) "stored evaluated" true (Engine.Database.mem db (atom "n(3)"))

let suite =
  [
    Alcotest.test_case "add/mem" `Quick test_add_mem;
    Alcotest.test_case "arity check" `Quick test_arity_check;
    Alcotest.test_case "lookup" `Quick test_lookup;
    Alcotest.test_case "index updates" `Quick test_index_updates;
    prop_lookup_is_filter;
    prop_index_coherent_under_removal;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "remove/re-add stamps" `Quick test_remove_readd_stamps;
    Alcotest.test_case "copy after remove" `Quick test_remove_copy;
    prop_of_log_live;
    prop_of_log_tombstoned;
    prop_buckets_match_model;
    prop_relation_model;
    Alcotest.test_case "list model past 2^16 slots" `Quick test_relation_model_large;
    Alcotest.test_case "relation: probes do not allocate" `Quick test_relation_no_alloc;
    Alcotest.test_case "database" `Quick test_database;
    Alcotest.test_case "database arith" `Quick test_database_arith_normalized;
  ]
