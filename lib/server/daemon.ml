type listen = Unix_path of string | Tcp of int

(* connection hand-off queue: acceptor pushes, worker domains pop *)
type pool = {
  m : Mutex.t;
  nonempty : Condition.t;
  q : Unix.file_descr Queue.t;
  stop : bool Atomic.t;
}

let push pool fd =
  Mutex.lock pool.m;
  Queue.push fd pool.q;
  Condition.signal pool.nonempty;
  Mutex.unlock pool.m

let pop pool =
  Mutex.lock pool.m;
  let rec go () =
    match Queue.take_opt pool.q with
    | Some fd -> Some fd
    | None ->
      if Atomic.get pool.stop then None
      else begin
        Condition.wait pool.nonempty pool.m;
        go ()
      end
  in
  let r = go () in
  Mutex.unlock pool.m;
  r

let respond oc resp =
  output_string oc (Protocol.encode_response resp);
  output_char oc '\n';
  flush oc

(* Serve one connection to completion.  Returns [true] if the client
   asked for daemon shutdown. *)
let handle_conn registry fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let shutdown = ref false in
  (try
     let rec loop () =
       match In_channel.input_line ic with
       | None -> () (* client closed (possibly mid-line: nothing to answer) *)
       | Some line ->
         if String.trim line = "" then loop ()
         else begin
           let resp =
             try
               match Protocol.decode_request line with
               | Error resp -> resp
               | Ok (Protocol.Query a) -> Registry.query registry a
               | Ok (Protocol.Txn ops) -> Registry.transact registry ops
               | Ok Protocol.Stats ->
                 Protocol.Stats_reply (Registry.stats_fields registry)
               | Ok Protocol.Shutdown ->
                 shutdown := true;
                 Protocol.Shutdown_ack
             with e ->
               Protocol.Error
                 { code = Protocol.Internal; message = Printexc.to_string e }
           in
           respond oc resp;
           if not !shutdown then loop ()
         end
     in
     loop ()
   with _ ->
     (* broken pipe, malformed channel state: drop the connection, keep
        the daemon *)
     ());
  (* [oc] owns [fd]: closing it closes the descriptor, exactly once.  A
     second [Unix.close fd] would hit whatever descriptor another domain
     has since been handed under the same number. *)
  close_out_noerr oc;
  !shutdown

let bind_listen = function
  | Unix_path path ->
    if Sys.file_exists path then Unix.unlink path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    fd

(* accept() has no timeout; to unblock the acceptor after a shutdown
   request we connect to our own listening address once *)
let poke addr =
  match addr with
  | Unix.ADDR_UNIX _ | Unix.ADDR_INET _ -> (
    let dom = Unix.domain_of_sockaddr addr in
    let fd = Unix.socket dom Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ -> ( try Unix.close fd with _ -> ()))

let run ?(jobs = 2) ?on_ready listen registry =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let lfd = bind_listen listen in
  let addr = Unix.getsockname lfd in
  Option.iter (fun f -> f addr) on_ready;
  let pool =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      q = Queue.create ();
      stop = Atomic.make false;
    }
  in
  let worker () =
    let rec go () =
      match pop pool with
      | None -> ()
      | Some fd ->
        if handle_conn registry fd then begin
          Atomic.set pool.stop true;
          (* wake the blocked acceptor and any idle workers *)
          poke addr;
          Mutex.lock pool.m;
          Condition.broadcast pool.nonempty;
          Mutex.unlock pool.m
        end;
        go ()
    in
    go ()
  in
  let domains =
    if jobs <= 0 then []
    else List.init jobs (fun _ -> Domain.spawn worker)
  in
  let rec accept_loop () =
    if not (Atomic.get pool.stop) then begin
      match Unix.accept lfd with
      | fd, _ ->
        if Atomic.get pool.stop then (try Unix.close fd with _ -> ())
        else if jobs <= 0 then begin
          if handle_conn registry fd then Atomic.set pool.stop true
        end
        else push pool fd;
        accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    end
  in
  accept_loop ();
  (* drain: workers exit once the queue is empty and stop is set *)
  Mutex.lock pool.m;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.m;
  List.iter Domain.join domains;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  match listen with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()
