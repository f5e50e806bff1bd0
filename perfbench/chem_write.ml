(* chem-write: a smaller compound collection in a .store (patterns x
   compounds fit the plan cache), served by [gqlsh serve] with one
   materialized view over it. Each round interleaves, at a fixed ratio,
   single-statement DML (a relabel, an edge insert, an edge delete on
   random compounds), view reads and --wait-watermark selections. The
   write path (Mutate, incremental index maintenance, view refresh
   under the writer lock, per-graph epochs, the txn log) does the work
   here and none in the other two workloads.

   The benchmark keeps its own model of every write it made: each read
   must equal brute-force isomorphism on that model, and at the end the
   server is killed with SIGKILL and the reopened store is compared with
   it. Every acknowledged write the reopened store lacks is one failed
   operation. *)

open Gql_graph
module Rng = Gql_datasets.Rng

let n_compounds = 600
let setup_reps = 9

(* The view: every C-N bond, with its order. Reading it back selects
   each stored pair exactly once. *)
let view_sel = Chem_data.sel "cn" [ "C"; "N" ] [ (0, 1, None) ]

let create_view =
  "create materialized view cn as "
  ^ Chem_data.query_text ~doc:"doc(\"C\")" view_sel

let view_read = Chem_data.query_text ~doc:"view(\"cn\")" view_sel

(* The --wait-watermark selection: one pattern, so its latencies are one
   distribution and not a mix of two. *)
let gated = Chem_data.pool.(0)

let gated_text = Chem_data.query_text ~doc:"doc(\"C\")" gated

(* One round, in order. 3 of its 8 operations are writes. *)
let round = [| `Relabel; `Read; `View; `Insert; `Read; `Delete; `View; `Read |]

let elements = [| "C"; "C"; "C"; "C"; "N"; "O"; "S" |]

(* --- the model ----------------------------------------------------------- *)

type model = {
  cs : Chem_data.compound array;
  (* per compound: embeddings of the view selection and of the gated
     selection, kept current as writes land *)
  view_counts : int array;
  gated_counts : int array;
  (* per compound: its canonical state after each of its writes, newest
     first and the initial state last -- the crash probe finds how many
     are durable *)
  history : string list array;
}

let view_pattern = Chem_data.pattern_graph view_sel
let gated_pattern = Chem_data.pattern_graph gated

let recount m i =
  let g = Chem_data.to_graph m.cs.(i) in
  m.view_counts.(i) <- Chem_data.count_in view_sel view_pattern g;
  m.gated_counts.(i) <- Chem_data.count_in gated gated_pattern g

(* Canonical state: labels and write stamps in atom order, and the
   sorted set of named bonds. *)
let canonical_of ~labels ~stamps ~bonds =
  let bonds =
    List.sort compare
      (List.map (fun (name, u, v, o) -> (name, min u v, max u v, o)) bonds)
  in
  String.concat ","
    (Array.to_list (Array.map2 (Printf.sprintf "%s/%d") labels stamps))
  ^ "|"
  ^ String.concat ";"
      (List.map (fun (name, u, v, o) -> Printf.sprintf "%s=%d-%d:%d" name u v o) bonds)

let canonical c =
  canonical_of ~labels:c.Chem_data.c_labels ~stamps:c.Chem_data.c_stamps
    ~bonds:c.Chem_data.c_bonds

let model_of compounds =
  let n = Array.length compounds in
  let m =
    {
      cs = Array.map Chem_data.copy compounds;
      view_counts = Array.make n 0;
      gated_counts = Array.make n 0;
      history = Array.map (fun c -> [ canonical c ]) compounds;
    }
  in
  for i = 0 to n - 1 do
    recount m i
  done;
  m

let sum = Array.fold_left ( + ) 0

(* Draw the next write against the current model and return its DML
   text together with the function that applies it to the model. [seq]
   numbers the write: relabels stamp it on the atom and inserted bonds
   carry it in their name, and deletes only take original bonds, so
   every write moves its compound to a state it was never in. *)
let next_write m rng ~seq kind =
  let n = Array.length m.cs in
  let rec pick () =
    let i = Rng.int rng n in
    let c = m.cs.(i) in
    let k = Array.length c.c_labels in
    match kind with
    | `Relabel ->
      let a = Rng.int rng k in
      let rec fresh () =
        let l = Rng.choose rng elements in
        if String.equal l c.c_labels.(a) then fresh () else l
      in
      let l = fresh () in
      ( i,
        Printf.sprintf "update node doc(\"C\").%s.a%d set <label=%S, w=%d>;"
          c.c_name a l seq,
        fun () ->
          c.c_labels.(a) <- l;
          c.c_stamps.(a) <- seq )
    | `Insert ->
      let adjacent u v =
        List.exists
          (fun (_, x, y, _) -> (x = u && y = v) || (x = v && y = u))
          c.c_bonds
      in
      let u = Rng.int rng k and v = Rng.int rng k in
      if u = v || adjacent u v then pick ()
      else
        let o = 1 + Rng.int rng 2 in
        let name = Printf.sprintf "x%d" seq in
        ( i,
          Printf.sprintf "insert edge %s (a%d, a%d) <bond=%d> into doc(\"C\").%s;"
            name u v o c.c_name,
          fun () -> c.c_bonds <- (name, u, v, o) :: c.c_bonds )
    | `Delete -> (
      match List.filter (fun (b, _, _, _) -> b.[0] = 'b') c.c_bonds with
      | [] -> pick ()
      | bonds ->
        let name, _, _, _ = List.nth bonds (Rng.int rng (List.length bonds)) in
        ( i,
          Printf.sprintf "delete edge doc(\"C\").%s.%s;" c.c_name name,
          fun () ->
            c.c_bonds <-
              List.filter (fun (b, _, _, _) -> not (String.equal b name)) c.c_bonds ))
  in
  pick ()

(* --- crash probe --------------------------------------------------------- *)

(* Reopen the store after the kill: each compound must be its model
   state after some prefix of its own writes (a write-ahead log can lose
   a tail, never reorder or corrupt). Returns the acknowledged writes
   the store lacks. *)
let crash_probe m store =
  let st = Gql_storage.Store.open_existing store in
  let missing = ref 0 in
  let seen = ref 0 in
  Gql_storage.Store.iter st ~f:(fun _ g ->
      let name = Option.value ~default:"" (Graph.name g) in
      match Scanf.sscanf_opt name "compound%d%!" Fun.id with
      | Some i when i < Array.length m.cs ->
        incr seen;
        let k = Graph.n_nodes g in
        let labels = Array.make k "" and stamps = Array.make k 0 in
        let index = Array.make k (-1) in
        Graph.iter_nodes g ~f:(fun v ->
            match Option.bind (Graph.node_name g v) (fun s -> Scanf.sscanf_opt s "a%d%!" Fun.id) with
            | Some a when a < k ->
              labels.(a) <- Graph.label g v;
              (match Tuple.find (Graph.node_tuple g v) "w" with
              | Some (Value.Int w) -> stamps.(a) <- w
              | _ -> ());
              index.(v) <- a
            | _ -> ());
        let bonds =
          Graph.fold_edges g ~init:[] ~f:(fun acc e ed ->
              ( Option.value ~default:"?" (Graph.edge_name g e),
                index.(ed.Graph.src),
                index.(ed.Graph.dst),
                Chem_data.bond_order g e )
              :: acc)
        in
        let state = canonical_of ~labels ~stamps ~bonds in
        (* history is newest first: the durable prefix is the newest
           matching state *)
        let rec find j = function
          | [] -> None
          | s :: rest -> if String.equal s state then Some j else find (j + 1) rest
        in
        (match find 0 m.history.(i) with
        | Some lost -> missing := !missing + lost
        | None ->
          Util.check false "crash probe: %s matches no state it was ever in" name)
      | _ -> Util.check false "crash probe: unexpected graph %S in the store" name);
  Gql_storage.Store.close st;
  Util.check (!seen = Array.length m.cs) "crash probe: %d of %d compounds reopened"
    !seen (Array.length m.cs);
  !missing

(* --- the run ------------------------------------------------------------- *)

(* A block is 20 rounds: 60 gated reads, 60 writes, 40 view reads,
   about 2.5 s. Every run does at least [min_blocks]; the server's peak
   RSS is read after them, since the server's memory grows with every
   operation it serves. *)
let rounds_per_block = 20
let min_blocks = 5

(* The read and write tail of a block: its 6th-slowest of 60. *)
let tail_pct = 90.0

let prepare ~gqlsh ~seed =
  let dir = Util.workdir "chem-write" in
  let compounds = Chem_data.compounds ~seed ~n:n_compounds in
  let store = Filename.concat dir "chem.store" in
  Chem_data.write_store store compounds;
  let addr = Filename.concat dir "s.sock" in
  let doc = "C=" ^ store in
  (* the view is part of the input: created once and committed *)
  let t = Served.start ~gqlsh ~addr ~doc in
  (match Served.ok_graphs (Served.query t create_view) with
  | Some _ -> ()
  | None -> failwith "create materialized view failed");
  Served.shutdown t;
  (* a pristine copy for the traced replay *)
  let trace_store = Filename.concat dir "trace.store" in
  Util.copy_file store trace_store;
  (compounds, store, trace_store, addr, doc)

let run ~gqlsh ~seed ~seconds =
  let compounds, store, trace_store, addr, doc = prepare ~gqlsh ~seed in
  let warmup = Served.warmup_query "C" in
  let setups =
    List.init setup_reps (fun _ ->
        let t, dt = Served.warm_start ~gqlsh ~addr ~doc ~warmup in
        Served.shutdown t;
        dt)
  in
  let srv, _ = Served.warm_start ~gqlsh ~addr ~doc ~warmup in
  let m = model_of compounds in
  let rng = Rng.create seed in
  let write_ms = ref [] and view_ms = ref [] and read_ms = ref [] and all_ms = ref [] in
  let wire = ref [] and n_ops = ref 0 and failed = ref 0 and ops = ref [] in
  let seq = ref 0 and block = ref 0 in
  let op kind ?(wait_watermark = false) text =
    let r, dt = Util.time (fun () -> Served.query ~wait_watermark srv text) in
    incr n_ops;
    ops := (kind, text) :: !ops;
    let l =
      match kind with
      | Util.Write -> write_ms
      | Util.View_read -> view_ms
      | Util.Read -> read_ms
    in
    l := (!block, Util.ms dt) :: !l;
    all_ms := (!block, Util.ms dt) :: !all_ms;
    if kind = Util.Read then wire := (Util.ms dt -. r.qr_wall_ms) :: !wire;
    match Served.ok_graphs r with
    | None ->
      incr failed;
      Util.check false "chem-write: %S answered %s" text r.qr_status;
      None
    | Some gs -> Some (r, gs)
  in
  let one_round () =
    Array.iter
      (function
        | (`Relabel | `Insert | `Delete) as w -> (
          incr seq;
          let i, text, apply = next_write m rng ~seq:!seq w in
          match op Util.Write text with
          | None -> ()
          | Some (r, _) ->
            Util.check (r.qr_writes = 1) "chem-write: %S acknowledged %d writes" text
              r.qr_writes;
            apply ();
            recount m i;
            m.history.(i) <- canonical m.cs.(i) :: m.history.(i))
        | `View -> (
          match op Util.View_read view_read with
          | None -> ()
          | Some (_, gs) ->
            let expect = sum m.view_counts in
            Util.check (List.length gs = expect)
              "chem-write: view read returned %d graphs, model says %d"
              (List.length gs) expect;
            Chem_data.check_results "chem-write view read" view_sel gs)
        | `Read -> (
          match op Util.Read ~wait_watermark:true gated_text with
          | None -> ()
          | Some (_, gs) ->
            let expect = sum m.gated_counts in
            Util.check (List.length gs = expect)
              "chem-write: %s returned %d graphs, model says %d" gated.s_name
              (List.length gs) expect;
            Chem_data.check_results "chem-write" gated gs))
      round
  in
  let rss = ref nan in
  Util.run_blocks ~seconds ~min_blocks
    ~at_min:(fun () -> rss := Util.peak_rss_mb (Some srv.Served.pid))
    (fun b ->
      block := b;
      for _ = 1 to rounds_per_block do
        one_round ()
      done);
  Served.crash srv;
  let missing = crash_probe m store in
  Printf.eprintf "chem-write: %d ops, %d acknowledged writes lost by the crash\n%!"
    !n_ops missing;
  ( trace_store,
    {
      Util.attempted = !n_ops;
      failed = !failed + missing;
      e2e =
        [
          Util.metric "setup_s" "s" (Util.median setups);
          Util.metric "ops_per_s" "1/s" (Util.over_blocks Util.per_second !all_ms);
          Util.metric "read_p50_ms" "ms" (Util.over_blocks Util.median !read_ms);
          Util.metric "read_tail_ms" "ms"
            (Util.over_blocks (Util.percentile tail_pct) !read_ms);
          Util.metric "peak_rss_mb" "MiB" !rss;
        ];
      gauges =
        [
          ("op.write_p50_ms", Util.over_blocks Util.median !write_ms);
          ("op.write_tail_ms", Util.over_blocks (Util.percentile tail_pct) !write_ms);
          ("op.view_p50_ms", Util.over_blocks Util.median !view_ms);
          ("wire.overhead_ms", Util.median !wire);
        ];
      ops = List.rev !ops;
    } )

(* The traced replay over a pristine copy of the store: the same
   programs through an in-process service whose write sink does what
   [gqlsh serve]'s does -- append the transaction (store.append_txn) --
   and then, timed apart, the same write's Mutate application, its
   incremental index update and a view refresh; each write is followed
   by a commit (store.flush) so its bytes can be counted. Reads go
   through the service, the wire codec and the engine's phases as in
   chem-served. *)
let replay pristine ops tr ~stop =
  let module Store = Gql_storage.Store in
  let module View = Gql_exec.View in
  (* every pass writes: each starts from its own copy *)
  let store = pristine ^ ".pass" in
  Util.copy_file pristine store;
  let (st, gids, graphs), open_s =
    Util.time (fun () ->
        let st = Store.open_existing store in
        let gids = ref [] and gs = ref [] in
        Store.iter st ~f:(fun gid g ->
            gids := gid :: !gids;
            gs := g :: !gs);
        (st, Array.of_list (List.rev !gids), List.rev !gs))
  in
  let cur = Array.of_list graphs in
  let blob = Option.get (Store.view_blob st "cn") in
  let view = View.decode ~name:"cn" blob in
  View.attach ~graphs:(View.decoded_graphs blob) view ~docs:graphs;
  let idx = Trace.Phys.create 1024 and vidx = Trace.Phys.create 1024 in
  let cache = Some (Gql_exec.Cache.create ()) in
  let untimed = Trace.create ~enabled:false in
  let on_write = function
    | Gql_core.Eval.W_update { index; old_graph; new_graph; ops; delta; _ } ->
      ignore
        (Trace.span tr "store.append_txn" (fun () ->
             Store.append_txn st ~gid:gids.(index) ops));
      ignore
        (Trace.span tr "mutate.apply" (fun () -> Gql_graph.Mutate.apply_all old_graph ops));
      Trace.count tr "mutate.dirty_nodes"
        (float_of_int (Array.length delta.Gql_graph.Mutate.dirty));
      let li, pi = Trace.indexes_of tr idx old_graph in
      let updated =
        Trace.span tr "index.update" (fun () ->
            ( Gql_index.Label_index.update li ~old_graph new_graph delta,
              fst (Gql_index.Profile_index.update pi new_graph delta) ))
      in
      Trace.Phys.replace idx new_graph updated;
      cur.(index) <- new_graph;
      ignore
        (Trace.span tr "view.refresh" (fun () ->
             View.refresh view ~docs:(Array.to_list cur)
               (View.Update { index; new_graph; delta })))
    | Gql_core.Eval.W_create_view { name; materialized; def; graphs; epoch } ->
      Trace.span tr "store.append_txn" (fun () ->
          let v = View.make ~name ~materialized ~epoch def in
          View.attach ~graphs v ~docs:[];
          Store.set_view st ~name (View.encode v))
    | _ -> ()
  in
  let svc =
    Gql_exec.Service.create ~jobs:1 ~search_domains:1 ~docs:[ ("C", graphs) ] ~on_write ()
  in
  Gql_exec.Service.install_view svc (View.decode ~name:"cn" blob);
  ignore (Trace.service untimed svc (Served.warmup_query "C"));
  let rec go i = function
    | (kind, text) :: rest when not (stop i) ->
      (match kind with
      | Util.Write ->
        let before = Util.file_size store in
        ignore (Trace.gc tr (fun () -> Trace.service tr svc text));
        Trace.span tr "store.flush" (fun () -> Store.flush st);
        Trace.count tr "store.bytes" (float_of_int (Util.file_size store - before))
      | Util.Read ->
        let result = Trace.gc tr (fun () -> Trace.service tr svc text) in
        Trace.wire tr result;
        Trace.select tr ~idx ~cache text (Array.to_list cur)
      | Util.View_read ->
        let result = Trace.gc tr (fun () -> Trace.service tr svc text) in
        Trace.wire tr result;
        (* the view's graphs change with every refresh: their index
           builds are not the documents' *)
        List.iter (fun g -> ignore (Trace.indexes_of untimed vidx g)) (View.graphs view);
        Trace.select tr ~idx:vidx ~cache text (View.graphs view));
      go (i + 1) rest
    | _ -> i
  in
  let n = go 0 ops in
  let views = Gql_exec.Service.views svc in
  let stats = Gql_exec.Service.cache_stats svc in
  Gql_exec.Service.shutdown svc;
  Store.close st;
  let vi = List.hd views in
  ( n,
    [
      ("store.open_ms", Util.ms open_s);
      ("exec.cached_plans", float_of_int stats.Gql_exec.Cache.plans);
      ("exec.row_evictions", float_of_int stats.retrieval.Gql_exec.Lru.evictions);
      ("view.incremental", float_of_int vi.Gql_exec.Service.vi_incr_refreshes);
      ("view.full", float_of_int vi.Gql_exec.Service.vi_full_refreshes);
    ] )
