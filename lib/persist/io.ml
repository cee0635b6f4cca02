exception Crash

type sink = {
  write : string -> unit;
  sync : unit -> unit;
  close : unit -> unit;
}

let file ?(append = false) path =
  let flags =
    if append then [ Open_wronly; Open_append; Open_creat; Open_binary ]
    else [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
  in
  let oc = open_out_gen flags 0o644 path in
  {
    write = (fun s -> output_string oc s);
    sync =
      (fun () ->
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    close = (fun () -> close_out_noerr oc);
  }

let crash_after budget inner =
  let left = ref budget in
  let dead = ref false in
  {
    write =
      (fun s ->
        if !dead then raise Crash;
        let n = String.length s in
        if n <= !left then begin
          inner.write s;
          left := !left - n
        end
        else begin
          inner.write (String.sub s 0 !left);
          left := 0;
          dead := true;
          inner.close ();
          raise Crash
        end);
    sync = (fun () -> if !dead then raise Crash else inner.sync ());
    close = inner.close;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let truncate path len = Unix.truncate path len

(* EINVAL is the answer of a filesystem that cannot sync a directory;
   any other error means the rename may not be durable *)
let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())
