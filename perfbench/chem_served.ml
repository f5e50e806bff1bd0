(* chem-served: a Chem compound collection in a .store, served by one
   [gqlsh serve] child over a unix socket, queried with a fixed pool of
   selections whose templates compose result graphs, sent with skewed
   popularity. The collection is sized so that patterns x compounds far
   exceeds the plan cache's 4096 entries; the work is per graph and
   spread across the service caches, retrieval, template composition
   and result rendering/framing, with little search. *)

let n_compounds = 1500
let setup_reps = 9

(* Skewed popularity, fixed per round: pool entry i is sent
   [popularity.(i)] times (roughly 1/rank) per round of 24, interleaved
   by smooth weighted round-robin, so every round has the same mix and
   the same pattern of repeats -- which the plan cache's hits depend
   on. The seed chooses the compounds. *)
let popularity = [| 9; 5; 3; 2; 2; 1; 1; 1 |]

let schedule =
  let total = Array.fold_left ( + ) 0 popularity in
  let credit = Array.make (Array.length popularity) 0 in
  Array.init total (fun _ ->
      Array.iteri (fun i w -> credit.(i) <- credit.(i) + w) popularity;
      let best = ref 0 in
      Array.iteri (fun i c -> if c > credit.(!best) then best := i) credit;
      credit.(!best) <- credit.(!best) - total;
      !best)

(* A block is one server's lifetime: a warm start (one more set-up
   sample), then two rounds, 48 queries, about 4 s, and a clean
   shutdown. The server's memory grows with every query it serves, so
   one server for the whole run would make the figures depend on how
   many queries the machine's speed let the run send; a fresh one per
   block makes every block the same experiment. Its peak RSS is read at
   the end of each block. Every run does at least [min_blocks]. *)
let rounds_per_block = 2
let min_blocks = 4

(* The read tail of a block: its 5th-slowest query. *)
let tail_pct = 90.0

let run ~gqlsh ~seed ~seconds =
  let dir = Util.workdir "chem-served" in
  let compounds = Chem_data.compounds ~seed ~n:n_compounds in
  let store = Filename.concat dir "chem.store" in
  Chem_data.write_store store compounds;
  let addr = Filename.concat dir "s.sock" in
  let doc = "C=" ^ store in
  let warmup = Served.warmup_query "C" in
  let setups =
    ref
      (List.init setup_reps (fun _ ->
           let t, dt = Served.warm_start ~gqlsh ~addr ~doc ~warmup in
           Served.shutdown t;
           dt))
  in
  let pool = Chem_data.pool in
  let texts = Array.map (Chem_data.query_text ~doc:"doc(\"C\")") pool in
  let lat = ref [] and wire = ref [] in
  let n_ops = ref 0 and failed = ref 0 and ops = ref [] in
  let counts = Array.make (Array.length pool) [] in
  let rss = ref [] in
  Util.run_blocks ~seconds ~min_blocks ~at_min:ignore (fun b ->
      let srv, dt = Served.warm_start ~gqlsh ~addr ~doc ~warmup in
      setups := dt :: !setups;
      for _ = 1 to rounds_per_block do
        Array.iter
          (fun i ->
            let r, dt = Util.time (fun () -> Served.query srv texts.(i)) in
            incr n_ops;
            ops := (Util.Read, texts.(i)) :: !ops;
            match Served.ok_graphs r with
            | None ->
              incr failed;
              Util.check false "chem-served %s: status %s" pool.(i).Chem_data.s_name
                r.qr_status
            | Some gs ->
              lat := (b, Util.ms dt) :: !lat;
              wire := (Util.ms dt -. r.qr_wall_ms) :: !wire;
              counts.(i) <- List.length gs :: counts.(i);
              Chem_data.check_results "chem-served" pool.(i) gs)
          schedule
      done;
      rss := Util.peak_rss_mb (Some srv.Served.pid) :: !rss;
      Served.shutdown srv);
  (* the compounds never change, so one brute-force count per pattern
     checks every answer to it *)
  let graphs = Array.map Chem_data.to_graph compounds in
  Array.iteri
    (fun i s ->
      if counts.(i) <> [] then begin
        let pattern = Chem_data.pattern_graph s in
        let expect =
          Array.fold_left (fun acc g -> acc + Chem_data.count_in s pattern g) 0 graphs
        in
        List.iter
          (fun n ->
            Util.check (n = expect) "chem-served %s: %d results, oracle says %d"
              s.Chem_data.s_name n expect)
          counts.(i)
      end)
    pool;
  Printf.eprintf "chem-served: %d queries; per pattern: %s\n%!" !n_ops
    (String.concat " "
       (Array.to_list
          (Array.mapi
             (fun i s -> Printf.sprintf "%s=%d" s.Chem_data.s_name (List.length counts.(i)))
             pool)));
  ( store,
    {
      Util.attempted = !n_ops;
      failed = !failed;
      e2e =
        [
          Util.metric "setup_s" "s" (Util.median !setups);
          Util.metric "ops_per_s" "1/s" (Util.over_blocks Util.per_second !lat);
          Util.metric "read_p50_ms" "ms" (Util.over_blocks Util.median !lat);
          Util.metric "read_tail_ms" "ms"
            (Util.over_blocks (Util.percentile tail_pct) !lat);
          Util.metric "peak_rss_mb" "MiB" (Util.median !rss);
        ];
      gauges = [ ("wire.overhead_ms", Util.median !wire) ];
      ops = List.rev !ops;
    } )

(* The traced replay: reopen the store (store.open), then per query the
   in-process service (exec and gc), the server's rendering and the
   protocol's framing of its result (wire), and the engine's phases
   per compound on prebuilt indexes (the matcher and core metrics). *)
let replay store ops tr ~stop =
  let graphs, open_s =
    Util.time (fun () ->
        let st = Gql_storage.Store.open_existing store in
        let gs = Gql_storage.Store.to_list st in
        Gql_storage.Store.close st;
        gs)
  in
  let svc =
    Gql_exec.Service.create ~jobs:1 ~search_domains:1 ~docs:[ ("C", graphs) ] ()
  in
  ignore (Trace.service (Trace.create ~enabled:false) svc (Served.warmup_query "C"));
  let idx = Trace.Phys.create (List.length graphs) in
  let cache = Some (Gql_exec.Cache.create ()) in
  let rec go i = function
    | (_, text) :: rest when not (stop i) ->
      let result = Trace.gc tr (fun () -> Trace.service tr svc text) in
      Trace.wire tr result;
      Trace.select tr ~idx ~cache text graphs;
      go (i + 1) rest
    | _ -> i
  in
  let n = go 0 ops in
  let st = Gql_exec.Service.cache_stats svc in
  Gql_exec.Service.shutdown svc;
  ( n,
    [
      ("store.open_ms", Util.ms open_s);
      ("exec.cached_plans", float_of_int st.Gql_exec.Cache.plans);
      ("exec.row_evictions", float_of_int st.retrieval.Gql_exec.Lru.evictions);
    ] )
