(* A [gqlsh serve] child process and the one client connection the
   benchmark drives it over. *)

module Client = Gql_exec.Client
module Protocol = Gql_exec.Protocol

type t = { pid : int; conn : Client.t }

(* Every server started, so an aborted run still reaps it. *)
let live : int list ref = ref []

let () =
  at_exit (fun () -> List.iter Util.kill_and_wait !live)

let forget pid = live := List.filter (( <> ) pid) !live

(* Launch and poll until the server answers a ping. [jobs] is always
   explicit: the machine default would size the worker pool by the
   core count. *)
let start ~gqlsh ~addr ~doc =
  (try Sys.remove addr with Sys_error _ -> ());
  let pid =
    Util.spawn gqlsh [ "serve"; "--listen"; addr; "--jobs"; "1"; "--doc"; doc ]
  in
  live := pid :: !live;
  let deadline = Util.now () +. 60.0 in
  let rec connect () =
    match Client.connect addr with
    | conn -> (
      match Client.call conn (Protocol.Ping { q_id = 0 }) with
      | _ -> conn
      | exception e ->
        Client.close conn;
        retry e)
    | exception e -> retry e
  and retry e =
    if Util.now () > deadline then
      failwith ("server did not come up: " ^ Printexc.to_string e);
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      forget pid;
      failwith "server exited during start-up");
    Unix.sleepf 0.001;
    connect ()
  in
  { pid; conn = connect () }

let query ?(wait_watermark = false) t src =
  Client.query t.conn ~wait_watermark src

(* Clean shutdown: the server drains, commits its stores and exits. *)
let shutdown t =
  (try ignore (Client.call t.conn (Protocol.Shutdown { q_id = 0 }))
   with _ -> ());
  Client.close t.conn;
  ignore (Util.waitpid_retry t.pid);
  forget t.pid

(* What a crash looks like: SIGKILL, no chance to commit. *)
let crash t =
  Client.close t.conn;
  Util.kill_and_wait t.pid;
  forget t.pid

let ok_graphs (r : Protocol.query_response) =
  if String.equal r.qr_status "ok" then Some r.qr_graphs else None

(* Set-up as a user pays it: launch, store open, the server accepting
   connections, and a first selection over every graph of the doc
   (which builds their label and profile indexes). *)
let warm_start ~gqlsh ~addr ~doc ~warmup =
  Util.time (fun () ->
      let t = start ~gqlsh ~addr ~doc in
      (match ok_graphs (query t warmup) with
      | Some _ -> ()
      | None -> failwith "warm-up query failed");
      t)

(* A one-node selection on an element no compound has: it touches every
   graph's indexes and returns nothing. *)
let warmup_query doc =
  Printf.sprintf
    "for graph W { node w where label=\"Xx\"; } in doc(\"%s\") return graph { node m <x=1>; };"
    doc
