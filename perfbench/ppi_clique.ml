(* ppi-clique: the paper's Fig. 4.21 mix. Exhaustive random clique
   queries of size 2-7 (labels drawn by frequency from the 40 most
   frequent GO terms) against the synthetic 3112-node yeast PPI network,
   each sent as its own distinct program text to an in-process
   [Service] whose indexes are already built. Retrieval, refinement,
   ordering and search do nearly all the work; there is no wire,
   storage or view work. *)

open Gql_graph
module Service = Gql_exec.Service
module Queries = Gql_datasets.Queries
module Rng = Gql_datasets.Rng

let sizes = [| 2; 3; 4; 5; 6; 7 |]

type query = {
  q_id : int;
  q_labels : string array;  (** clique node labels, v0..vk-1 *)
  q_pattern : string;  (** the [graph Q { ... }] declaration *)
  q_text : string;  (** the whole program *)
}

let pattern_text id labels =
  let k = Array.length labels in
  let b = Buffer.create 256 in
  Printf.bprintf b "graph Q%d {" id;
  Array.iteri (fun i l -> Printf.bprintf b " node v%d where label=%S;" i l) labels;
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      Printf.bprintf b " edge e%d_%d (v%d, v%d);" i j i j
    done
  done;
  Buffer.add_string b " }";
  Buffer.contents b

let make_query id labels =
  let pat = pattern_text id labels in
  let copies =
    String.concat ", "
      (List.init (Array.length labels) (fun i -> Printf.sprintf "Q%d.v%d" id i))
  in
  {
    q_id = id;
    q_labels = labels;
    q_pattern = pat;
    q_text =
      Printf.sprintf "for %s exhaustive in doc(\"PPI\") return graph { node %s; };"
        pat copies;
  }

type env = {
  store : string;  (** a one-graph .store holding the network *)
  graph : Graph.t;  (** read back from [store] *)
  labels : string list;
  weights : float list;
}

let load store =
  let st = Gql_storage.Store.open_existing store in
  let g = Gql_storage.Store.get_graph st 0 in
  Gql_storage.Store.close st;
  g

let env () =
  let store = Filename.concat (Util.workdir "ppi-clique") "ppi.store" in
  let st = Gql_storage.Store.create store in
  ignore (Gql_storage.Store.add_graph st (Gql_datasets.Ppi.generate ()));
  Gql_storage.Store.close st;
  let graph = load store in
  let lidx = Gql_index.Label_index.build graph in
  let labels = Queries.top_labels lidx 40 in
  { store; graph; labels; weights = Queries.label_weights lidx labels }

(* One round = one query of each size. Query ids are global, so every
   program text (pattern name included) is distinct and the plan cache
   never sees a pattern twice. *)
let round env rng ~first_id =
  Array.mapi
    (fun i size ->
      let p = Queries.clique ~weights:env.weights rng ~labels:env.labels ~size in
      let labels = Array.init size (Graph.label p.Gql_matcher.Flat_pattern.structure) in
      make_query (first_id + i) labels)
    sizes

let docs env = [ ("PPI", [ env.graph ]) ]

let create_service env = Service.create ~jobs:1 ~search_domains:1 ~docs:(docs env) ()

(* A one-node query: its selection builds the graph's label and profile
   indexes, so the service is ready when it returns. *)
let warmup_query =
  "for graph W { node w where label=\"GO0000\"; } in doc(\"PPI\") return graph \
   { node m <x=1>; };"

let run_query svc text =
  let id = Service.submit svc text in
  Service.wait svc id

(* Set-up as an embedding application pays it: open the store, start a
   service over its graph, and answer a first selection, which builds
   the graph's label and profile indexes. *)
let cold_start env =
  let g = load env.store in
  let svc = Service.create ~jobs:1 ~search_domains:1 ~docs:[ ("PPI", [ g ]) ] () in
  ignore (Service.wait svc (Service.submit svc warmup_query));
  svc

let returned outcome =
  match outcome.Service.o_status with
  | Service.Done r -> Some (Gql_core.Eval.returned r)
  | _ -> None

(* The orf attribute "Y%04d" carries the data node id. *)
let node_id_of g v =
  match Tuple.find (Graph.node_tuple g v) "orf" with
  | Some (Value.Str s) -> Scanf.sscanf s "Y%d" (fun i -> i)
  | _ -> -1

(* A returned graph is a valid embedding: k distinct data nodes whose
   labels are the pattern's labels and which are pairwise adjacent. *)
let valid_embedding env q rg =
  let k = Array.length q.q_labels in
  Graph.n_nodes rg = k
  &&
  let ids = Array.init k (node_id_of rg) in
  let n = Graph.n_nodes env.graph in
  Array.for_all (fun i -> i >= 0 && i < n) ids
  && List.length (List.sort_uniq compare (Array.to_list ids)) = k
  && Array.for_all2
       (fun v i -> String.equal (Graph.label rg v) (Graph.label env.graph i))
       (Array.init k Fun.id) ids
  && List.sort compare (Array.to_list (Array.map (Graph.label env.graph) ids))
     = List.sort compare (Array.to_list q.q_labels)
  &&
  let ok = ref true in
  for a = 0 to k - 1 do
    for b = a + 1 to k - 1 do
      if not (Graph.has_edge env.graph ids.(a) ids.(b)) then ok := false
    done
  done;
  !ok

let clique_graph labels =
  let b = Graph.Builder.create () in
  let vs = Array.map (Graph.Builder.add_labeled_node b) labels in
  let k = Array.length vs in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      ignore (Graph.Builder.add_edge b vs.(i) vs.(j))
    done
  done;
  Graph.Builder.build b

(* The count oracle: brute-force backtracking isomorphism, apart from
   the retrieval/refine/order/search pipeline. *)
let oracle_count env labels =
  Iso.count_embeddings ~pattern:(clique_graph labels) ~target:env.graph ()

(* Count checks run on a seeded sample outside the timed loop: one query
   in [sample_every] (the brute-force oracle costs far more than the
   query it checks). *)
let sample_every = 200

let setup_reps = 15

(* A block is one service's lifetime: a cold start (one more set-up
   sample), then 200 rounds, 1200 queries, about 4 s. The service's
   memory and its per-query cost grow with every query it has served,
   so a service kept for the whole run would make the figures depend on
   how many queries the machine's speed let the run send; a fresh one
   per block makes every block the same experiment. The first block
   is a warm-up and not measured: it is the one that grows the
   process's heap, and its queries run about a tenth slower than the
   rest. Every run does at least [min_blocks] blocks, the warm-up
   included; the process's peak RSS is read after them. *)
let rounds_per_block = 200
let min_blocks = 4

(* The read tail of a block: 12 of its queries lie beyond it. *)
let tail_pct = 99.0

let run ~seed ~seconds =
  let env = env () in
  let rng = Rng.create seed in
  let setups =
    ref
      (List.init setup_reps (fun _ ->
           let svc, t = Util.time (fun () -> cold_start env) in
           Service.shutdown svc;
           t))
  in
  let lat = ref [] and n_ops = ref 0 and failed = ref 0 in
  let sample = ref [] and ops = ref [] in
  let next_id = ref 0 in
  let one_round svc b =
    let qs = round env rng ~first_id:!next_id in
    next_id := !next_id + Array.length qs;
    Array.iter
      (fun q ->
        let o, dt = Util.time (fun () -> run_query svc q.q_text) in
        incr n_ops;
        ops := (Util.Read, q.q_text) :: !ops;
        match returned o with
        | None ->
          incr failed;
          Util.check false "ppi-clique query %d did not complete" q.q_id
        | Some gs ->
          if b > 0 then lat := (b, Util.ms dt) :: !lat;
          List.iter
            (fun rg ->
              Util.check (valid_embedding env q rg)
                "ppi-clique query %d returned an invalid embedding" q.q_id)
            gs;
          if q.q_id mod sample_every = seed mod sample_every then
            sample := (q, List.length gs) :: !sample)
      qs
  in
  let rss = ref nan in
  Util.run_blocks ~seconds ~min_blocks
    ~at_min:(fun () -> rss := Util.peak_rss_mb None)
    (fun b ->
      let svc, t = Util.time (fun () -> cold_start env) in
      setups := t :: !setups;
      for _ = 1 to rounds_per_block do
        one_round svc b
      done;
      Service.shutdown svc);
  List.iter
    (fun (q, n) ->
      let expect = oracle_count env q.q_labels in
      Util.check (n = expect) "ppi-clique query %d: %d matches, oracle says %d"
        q.q_id n expect)
    !sample;
  Printf.eprintf "ppi-clique: %d queries, %d count checks against Iso\n%!" !n_ops
    (List.length !sample);
  ( env,
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
          Util.metric "peak_rss_mb" "MiB" !rss;
        ];
      gauges = [];
      ops = List.rev !ops;
    } )

(* The traced replay: every query through a fresh in-process service
   (exec and gc) and through the engine's phases on prebuilt indexes
   (the matcher and core metrics). *)
let replay env ops tr ~stop =
  let _, open_s = Util.time (fun () -> load env.store) in
  let svc = create_service env in
  ignore (run_query svc warmup_query);
  let idx = Trace.Phys.create 1 in
  ignore (Trace.indexes_of tr idx env.graph);
  let cache = Some (Gql_exec.Cache.create ()) in
  let rec go i = function
    | (_, text) :: rest when not (stop i) ->
      ignore (Trace.gc tr (fun () -> Trace.service tr svc text));
      Trace.select tr ~idx ~cache text [ env.graph ];
      go (i + 1) rest
    | _ -> i
  in
  let n = go 0 ops in
  let st = Service.cache_stats svc in
  Service.shutdown svc;
  ( n,
    [
      ("store.open_ms", Util.ms open_s);
      ("exec.cached_plans", float_of_int st.Gql_exec.Cache.plans);
      ("exec.row_evictions", float_of_int st.retrieval.Gql_exec.Lru.evictions);
    ] )
