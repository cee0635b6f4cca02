(* Pinned diagnostics.  Every program of the corpus ([data/bad/*.dl],
   [examples/*.dl], [data/*.dl]) and a set of inline lexical edge cases
   is checked with [Analysis.check_text], and the rendered report (each
   diagnostic through [Diagnostic.render] with its caret excerpt, then
   the summary line) must equal the text in
   [test/diag_reports/NAME.txt].  A front-end change must leave every
   report byte-identical; a change meant to alter one replaces the file
   with the failing test's received text. *)

module A = Analysis

let dir = Helpers.repo_file "test/diag_reports"

let report ~file src =
  let ds = A.check_text src in
  String.concat ""
    (List.map (fun d -> Fmt.str "%a\n" (A.Diagnostic.render ~src ~file) d) ds)
  ^ Fmt.str "%a\n" A.Diagnostic.summary ds

(* lexical and syntactic corners no corpus file exercises *)
let inline =
  [
    ("crlf", "p(a, b).\r\nq(X) :- p(X, Lone).\r\n?- q(a).\r\n");
    ("crlf_syntax_error", "p(a, b).\r\nq(X) :- p(X Y).\r\n?- q(a).\r\n");
    ("tabs", "p(a,\tb).\n\tq(X) :-\tp(X,\tLone).\n?-\tq(a).\n");
    ("comment_at_eof", "p(a, b).\n?- p(a, Y).\n% no newline after this comment");
    ("comment_at_eof_error", "p(a, b).\nq(X) :- p(X, _)\n% the rule above has no dot");
    ("missing_final_dot", "p(a, b).\n?- p(a, Y)");
    ("neq_spellings", "n(1).\nn(2).\nd(X, Y) :- n(X), n(Y), X != Y.\ne(X, Y) :- n(X), n(Y), X <> Y.\n?- d(1, Y).\n");
    ("anonymous_vars", "p(a, b).\nq(X) :- p(X, _).\nr(X) :- p(?, X).\ns(X) :- q(X), r(X).\n?- s(a).\n");
    ("nested_lists", "l([a, [b, c], [[d]], []]).\nm(X) :- l([X | _]).\nn(T) :- l([_, _ | T]).\n?- m(Y).\n");
    ("lex_error_last_byte", "p(a, b).\n?- p(a, Y).#");
    ("syntax_error_last_byte", "p(a, b).\nq(X) :- p(X, X))");
    ("truncated_at_last_byte", "p(a, b).\nq(X) :- p(X, X),");
    ("lex_error_after_syntax_error", "p(a b).\nq(X) :- p(X, X).\nr # s.\n");
    ("query_arrow_spacing", "p(a, b).\n? - p(a, Y).\n");
    ("arity_clash_repeated", "p(a, b).\np(c).\np(d).\nq(X) :- p(X), p(X, X).\n?- q(a).\n");
  ]

let corpus () =
  List.concat_map
    (fun sub ->
      let path = Helpers.repo_file sub in
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".dl")
      |> List.sort String.compare
      |> List.map (fun f ->
             let file = sub ^ "/" ^ f in
             let name =
               String.map (fun c -> if c = '/' then '_' else c) (Filename.remove_extension file)
             in
             (name, file, Cost_cases.read (Filename.concat path f))))
    [ "data/bad"; "examples"; "data" ]

let cases () =
  corpus () @ List.map (fun (name, src) -> ("inline_" ^ name, name ^ ".dl", src)) inline

let check_pinned (name, file, src) =
  let path = Filename.concat dir (name ^ ".txt") in
  if not (Sys.file_exists path) then Alcotest.failf "%s: no pinned report %s" name path;
  Alcotest.(check string) name (Cost_cases.read path) (report ~file src)

let test_reports () = List.iter check_pinned (cases ())

(* every pinned file belongs to a case *)
let test_no_stray () =
  let names = List.map (fun (n, _, _) -> n) (cases ()) in
  Array.iter
    (fun f ->
      if not (List.mem (Filename.remove_extension f) names) then
        Alcotest.failf "%s/%s pins no case" dir f)
    (Sys.readdir dir)

let suite =
  [
    Alcotest.test_case "diag: reports unchanged" `Quick test_reports;
    Alcotest.test_case "diag: no stray pins" `Quick test_no_stray;
  ]
