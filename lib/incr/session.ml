(* Persistent query sessions over a maintained database.

   A session fixes one program and one evaluation strategy, then serves
   interleaved updates and queries.  With a magic strategy the session
   holds the rewritten program materialized once, with the query's seed
   facts recorded as external support; a later query that adorns to the
   same rewritten program is answered by inserting its seeds as a
   transaction — incremental maintenance then grows the magic cone by
   exactly the newly relevant facts (the dynamic counterpart of the
   paper's per-query rewriting). *)

open Datalog
module C = Magic_core

type strategy = Original | GMS | GSMS | Auto

exception Incompatible_query of string

type t = {
  strategy : strategy;
  options : C.Rewrite.options;
  program : Program.t;  (* the original, un-rewritten program *)
  maintain : Maintain.t;
  mutable rw : C.Rewritten.t option;  (* rewritten strategies only *)
  mutable query : Atom.t;
}

let strategy_of_string = function
  | "original" -> Some Original
  | "gms" -> Some GMS
  | "gsms" -> Some GSMS
  | "auto" -> Some Auto
  | _ -> None

let strategy_to_string = function
  | Original -> "original"
  | GMS -> "gms"
  | GSMS -> "gsms"
  | Auto -> "auto"

let rewriting = function
  | GMS -> C.Rewrite.GMS
  | GSMS -> C.Rewrite.GSMS
  | Original | Auto -> invalid_arg "Session.rewriting"

let rec create ?(strategy = Original) ?(options = C.Rewrite.default_options) ?max_facts
    program query ~edb =
  match strategy with
  | Auto ->
    (* cost-based pick among the strategies a session can maintain *)
    let resolved, _choice = Analysis.choose_session_strategy ~db:edb program query in
    let strategy = match resolved with `GMS -> GMS | `GSMS -> GSMS in
    create ~strategy ~options ?max_facts program query ~edb
  | Original ->
    {
      strategy;
      options;
      program;
      maintain = Maintain.create ?max_facts program ~edb;
      rw = None;
      query;
    }
  | GMS | GSMS ->
    let rw = C.Rewrite.rewrite ~options (rewriting strategy) program query in
    (* the seeds enter the materialization as external facts of the
       magic predicates, exactly as later queries' seeds will *)
    let edb' = Engine.Database.copy edb in
    List.iter
      (fun seed -> ignore (Engine.Database.add_fact edb' seed))
      rw.C.Rewritten.seeds;
    {
      strategy;
      options;
      program;
      maintain = Maintain.create ?max_facts rw.C.Rewritten.program ~edb:edb';
      rw = Some rw;
      query;
    }

let update ?max_facts t ops = Maintain.apply ?max_facts t.maintain ops

let update_delta ?max_facts t ops = Maintain.apply_delta ?max_facts t.maintain ops

let answers t =
  match t.rw with
  | None -> Maintain.answers t.maintain t.query
  | Some rw ->
    C.Rewritten.answers rw
      {
        Engine.Eval.db = Maintain.db t.maintain;
        stats = Engine.Stats.create ();
        diverged = false;
      }

let same_program p1 p2 = List.equal Rule.equal (Program.rules p1) (Program.rules p2)

let query_delta ?max_facts t q =
  match t.strategy with
  | Original | Auto ->
    t.query <- q;
    (answers t, Maintain.no_stats, [])
  | GMS | GSMS ->
    let rw = Option.get t.rw in
    let rw' = C.Rewrite.rewrite ~options:t.options (rewriting t.strategy) t.program q in
    if not (same_program rw.C.Rewritten.program rw'.C.Rewritten.program) then
      raise
        (Incompatible_query
           (Fmt.str
              "query %a rewrites to a different program than the session's (the \
               binding pattern differs); start a new session"
              Atom.pp q));
    (* dynamic magic sets: install the new query's seeds and let
       maintenance extend the magic cone incrementally *)
    let stats, summary =
      Maintain.apply_delta ?max_facts t.maintain
        (List.map (fun s -> Maintain.Insert s) rw'.C.Rewritten.seeds)
    in
    t.rw <- Some rw';
    t.query <- q;
    (answers t, stats, summary)

let query ?max_facts t q =
  let answers, stats, _summary = query_delta ?max_facts t q in
  (answers, stats)

(* ------------------------------------------------------------------ *)
(* Persistence images                                                   *)
(* ------------------------------------------------------------------ *)

type image = {
  i_strategy : strategy;  (* resolved: never Auto *)
  i_query : Atom.t;
  i_maintain : Maintain.image;
}

let image t = { i_strategy = t.strategy; i_query = t.query; i_maintain = Maintain.image t.maintain }

let of_image ?(options = C.Rewrite.default_options) program im =
  match im.i_strategy with
  | Auto -> invalid_arg "Session.of_image: Auto is resolved at create time"
  | Original ->
    {
      strategy = Original;
      options;
      program;
      maintain = Maintain.of_image program im.i_maintain;
      rw = None;
      query = im.i_query;
    }
  | (GMS | GSMS) as strategy ->
    (* the rewrite is deterministic in (program, query, options), so it
       is recomputed symbolically instead of being serialized; the
       maintained image is over the rewritten program *)
    let rw = C.Rewrite.rewrite ~options (rewriting strategy) program im.i_query in
    {
      strategy;
      options;
      program;
      maintain = Maintain.of_image rw.C.Rewritten.program im.i_maintain;
      rw = Some rw;
      query = im.i_query;
    }

let db t = Maintain.db t.maintain
let strategy t = t.strategy
let rewritten t = t.rw
let maintained_program t = match t.rw with Some rw -> rw.C.Rewritten.program | None -> t.program
let options t = t.options
let program t = t.program
