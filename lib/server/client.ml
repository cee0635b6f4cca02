(* [ic] and [oc] share one descriptor, owned by [oc]: {!close} closes it
   exactly once, through [oc], and [ic] is never closed *)
type t = { ic : in_channel; oc : out_channel }

let connect ?(retries = 50) addr =
  let rec go n =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
      { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) when n > 0 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.02;
      go (n - 1)
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  go retries

let unix ?retries path = connect ?retries (Unix.ADDR_UNIX path)

let tcp ?retries port =
  connect ?retries (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let request t req =
  output_string t.oc (Protocol.encode_request req);
  output_char t.oc '\n';
  flush t.oc;
  match In_channel.input_line t.ic with
  | None -> failwith "server closed the connection"
  | Some line -> (
    match Protocol.decode_response line with
    | Ok resp -> resp
    | Error msg -> failwith msg)

let close t = close_out_noerr t.oc
