(* The traced run's instruments: timing and counting around calls into
   each layer's public functions, made from the benchmark's own code
   (nothing inside the program is instrumented). *)

open Gql_graph
module Engine = Gql_matcher.Engine
module Feasible = Gql_matcher.Feasible
module Service = Gql_exec.Service
module Protocol = Gql_exec.Protocol

(* --- spans --------------------------------------------------------------- *)

(* Accumulated seconds and counts per layer metric. A disabled recorder
   runs the same calls without reading the clock — the baseline the
   tracing overhead is measured against. *)
type t = {
  enabled : bool;
  times : (string, float) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
}

let create ~enabled = { enabled; times = Hashtbl.create 32; counts = Hashtbl.create 32 }

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let span t name f =
  if not t.enabled then f ()
  else begin
    let t0 = Util.now () in
    let x = f () in
    add t.times name (Util.now () -. t0);
    x
  end

let count t name v = if t.enabled then add t.counts name v

let total_s t name = Option.value ~default:0.0 (Hashtbl.find_opt t.times name)
let total t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counts name)

(* --- indexes, by physical graph ----------------------------------------- *)

module Phys = Hashtbl.Make (struct
  type t = Graph.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type indexes = (Gql_index.Label_index.t * Gql_index.Profile_index.t) Phys.t

let build_indexes g = (Gql_index.Label_index.build g, Gql_index.Profile_index.build ~r:1 g)

(* Indexes of a document graph, built (and timed as index.build) on
   first use. *)
let indexes_of tr (idx : indexes) g =
  match Phys.find_opt idx g with
  | Some p -> p
  | None ->
    let p = span tr "index.build" (fun () -> build_indexes g) in
    Phys.add idx g p;
    p

(* --- one selection, layer by layer ---------------------------------------- *)

let flwr_of program =
  List.find_map (function Gql_core.Ast.Sflwr f -> Some f | _ -> None) program

(* Replay a [for P exhaustive in ... return T] program over [docs]:
   parse and derive (core.parse), then per graph the plan-cache lookup
   the service would make (exec.plan_hits / exec.plan_misses), the
   engine's retrieve / refine / order / search phases on prebuilt
   indexes (matcher), and template instantiation per match
   (core.template). *)
let select tr ~(idx : indexes) ~cache text docs =
  let f, decl, patterns =
    span tr "core.parse" (fun () ->
        let f = Option.get (flwr_of (Gql_core.Gql.parse_program text)) in
        let decl =
          match f.Gql_core.Ast.f_pattern with
          | `Inline d -> d
          | `Named _ -> invalid_arg "replay: named pattern"
        in
        ( f,
          decl,
          List.of_seq
            (Gql_core.Motif.flat_patterns ~defs:Gql_core.Motif.no_defs decl) ))
  in
  let template =
    match f.Gql_core.Ast.f_body with
    | Gql_core.Ast.Return (Gql_core.Ast.Tgraph t) -> t
    | _ -> invalid_arg "replay: not a return template"
  in
  let pname = Option.value ~default:"P" decl.Gql_core.Ast.g_name in
  let plan_metrics = Gql_obs.Metrics.create () in
  List.iter
    (fun p ->
      List.iter
        (fun g ->
          let li, pi = indexes_of tr idx g in
          let planned =
            match cache with
            | None -> true
            | Some c ->
              Gql_exec.Cache.register c [ g ];
              let hit =
                Gql_exec.Cache.plan_find c ~metrics:plan_metrics ~retrieval:`Profiles
                  ~refine:true g p
                <> None
              in
              count tr (if hit then "exec.plan_hits" else "exec.plan_misses") 1.0;
              hit
          in
          let r =
            Engine.run ~strategy:Engine.optimized ~exhaustive:true ~label_index:li
              ~profile_index:pi p g
          in
          (* the phase timings are the engine's own *)
          let tm = r.Engine.timings in
          count tr "matcher.retrieve_ms" (Util.ms tm.Engine.t_retrieve);
          count tr "matcher.refine_ms" (Util.ms tm.Engine.t_refine);
          count tr "matcher.order_ms" (Util.ms tm.Engine.t_order);
          count tr "matcher.search_ms" (Util.ms tm.Engine.t_search);
          let size s = float_of_int (Array.fold_left ( + ) 0 (Feasible.sizes s)) in
          count tr "matcher.candidates" (size r.Engine.space_initial);
          count tr "matcher.refine_removed"
            (size r.Engine.space_initial -. size r.Engine.space_refined);
          count tr "matcher.search_visited" (float_of_int r.Engine.outcome.visited);
          count tr "matcher.matches" (float_of_int r.Engine.outcome.n_found);
          (match cache with
          | Some c when not planned ->
            Gql_exec.Cache.plan_add c ~retrieval:`Profiles ~refine:true g p
              {
                Gql_exec.Cache.p_space = r.Engine.space_refined.Feasible.candidates;
                p_order = r.Engine.order;
                p_epoch = 0;
              }
          | _ -> ());
          span tr "core.template" (fun () ->
              List.iter
                (fun phi ->
                  ignore
                    (Gql_core.Template.instantiate
                       ~env:[ (pname, Gql_core.Template.Pmatched (Gql_core.Matched.make p g phi)) ]
                       template))
                r.Engine.outcome.mappings))
        docs)
    patterns

(* --- the wire ------------------------------------------------------------ *)

(* Render a service result as the server does, frame it, and decode it
   as the client does. *)
let wire tr (result : Gql_core.Eval.result) =
  let graphs = span tr "wire.render" (fun () -> Gql_exec.Server.render_graphs result) in
  let frame =
    span tr "wire.encode" (fun () ->
        Protocol.encode
          (Protocol.Json.to_string
             (Protocol.query_response_to_json
                {
                  Protocol.qr_id = 1;
                  qr_qid = 1;
                  qr_status = "ok";
                  qr_stopped = Gql_matcher.Budget.stop_reason_to_string result.stopped;
                  qr_error = None;
                  qr_graphs = graphs;
                  qr_vars = List.length result.vars;
                  qr_writes = result.writes;
                  qr_wall_ms = 0.0;
                  qr_shards_ok = 1;
                  qr_shards_failed = [];
                })))
  in
  count tr "wire.response_bytes" (float_of_int (String.length frame));
  span tr "wire.decode" (fun () ->
      match Protocol.decode frame with
      | Ok (payload, _) -> (
        match Protocol.Json.parse payload with
        | Ok json -> ignore (Protocol.query_response_of_json json)
        | Error e -> failwith e)
      | Error e -> failwith (Protocol.frame_error_to_string e))

(* --- the service --------------------------------------------------------- *)

(* Run one program through an in-process service, timed as
   exec.service; returns its result. *)
let service tr svc text =
  let o = span tr "exec.service" (fun () -> Service.wait svc (Service.submit svc text)) in
  match o.Service.o_status with
  | Service.Done r -> r
  | Service.Rejected _ | Service.Failed _ -> failwith ("replay: query failed: " ^ text)

(* GC work over [f]: minor words allocated and major collections. *)
let gc tr f =
  let s0 = Gc.quick_stat () in
  let x = f () in
  let s1 = Gc.quick_stat () in
  count tr "gc.minor_words" (s1.Gc.minor_words -. s0.Gc.minor_words);
  count tr "gc.major_collections" (float_of_int (s1.Gc.major_collections - s0.Gc.major_collections));
  x

(* --- reporting ----------------------------------------------------------- *)

(* Every per-layer metric, in the order BENCHMARK.json lists them. A
   layer a workload does not exercise reads 0. [ops] normalises the
   per-operation figures; [selections], [writes] the per-query and
   per-write ones. *)
let metrics tr ~selections ~writes ~ops ~extra =
  let per n v = if n = 0 then 0.0 else v /. float_of_int n in
  let hits = total tr "exec.plan_hits" and misses = total tr "exec.plan_misses" in
  let visited = total tr "matcher.search_visited" in
  let get name = Option.value ~default:0.0 (List.assoc_opt name extra) in
  [
    Util.metric "matcher.retrieve_ms" "ms" (per selections (total tr "matcher.retrieve_ms"));
    Util.metric "matcher.refine_ms" "ms" (per selections (total tr "matcher.refine_ms"));
    Util.metric "matcher.order_ms" "ms" (per selections (total tr "matcher.order_ms"));
    Util.metric "matcher.search_ms" "ms" (per selections (total tr "matcher.search_ms"));
    Util.metric "matcher.candidates" "count" (per selections (total tr "matcher.candidates"));
    Util.metric "matcher.refine_removed" "count" (per selections (total tr "matcher.refine_removed"));
    Util.metric "matcher.search_visited" "count" (per selections visited);
    Util.metric "matcher.match_yield" "ratio"
      (if visited = 0.0 then 0.0 else total tr "matcher.matches" /. visited);
    Util.metric "index.build_ms" "ms" (Util.ms (total_s tr "index.build"));
    Util.metric "index.update_ms" "ms" (per writes (Util.ms (total_s tr "index.update")));
    Util.metric "mutate.apply_ms" "ms" (per writes (Util.ms (total_s tr "mutate.apply")));
    Util.metric "mutate.dirty_nodes" "count" (per writes (total tr "mutate.dirty_nodes"));
    Util.metric "core.parse_ms" "ms" (per ops (Util.ms (total_s tr "core.parse")));
    Util.metric "core.template_ms" "ms" (per selections (Util.ms (total_s tr "core.template")));
    Util.metric "exec.service_ms" "ms" (per ops (Util.ms (total_s tr "exec.service")));
    Util.metric "exec.plan_hits" "count" hits;
    Util.metric "exec.plan_misses" "count" misses;
    Util.metric "exec.plan_hit_ratio" "ratio"
      (if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
    Util.metric "exec.cached_plans" "count" (get "exec.cached_plans");
    Util.metric "exec.row_evictions" "count" (get "exec.row_evictions");
    Util.metric "view.refresh_ms" "ms" (per writes (Util.ms (total_s tr "view.refresh")));
    Util.metric "view.incremental" "count" (get "view.incremental");
    Util.metric "view.full" "count" (get "view.full");
    Util.metric "wire.render_ms" "ms" (per selections (Util.ms (total_s tr "wire.render")));
    Util.metric "wire.encode_ms" "ms" (per selections (Util.ms (total_s tr "wire.encode")));
    Util.metric "wire.decode_ms" "ms" (per selections (Util.ms (total_s tr "wire.decode")));
    Util.metric "wire.response_bytes" "B" (per selections (total tr "wire.response_bytes"));
    Util.metric "wire.overhead_ms" "ms" (get "wire.overhead_ms");
    Util.metric "store.open_ms" "ms" (get "store.open_ms");
    Util.metric "store.append_txn_ms" "ms" (per writes (Util.ms (total_s tr "store.append_txn")));
    Util.metric "store.flush_ms" "ms" (per writes (Util.ms (total_s tr "store.flush")));
    Util.metric "store.bytes_per_write" "B" (per writes (total tr "store.bytes"));
    Util.metric "gc.minor_words_per_op" "words" (per ops (total tr "gc.minor_words"));
    Util.metric "gc.major_collections" "count" (total tr "gc.major_collections");
    Util.metric "op.write_p50_ms" "ms" (get "op.write_p50_ms");
    Util.metric "op.write_tail_ms" "ms" (get "op.write_tail_ms");
    Util.metric "op.view_p50_ms" "ms" (get "op.view_p50_ms");
    Util.metric "trace.overhead_pct" "%" (get "trace.overhead_pct");
  ]

(* Run [replay] once with the recorder on, until [deadline], and once
   over the same operations with it off; the relative difference in
   wall time is the tracing overhead. [replay tr ~stop] calls [stop i]
   before its [i]th operation and returns how many it completed and
   the gauges it read at the end. *)
let with_overhead ~deadline replay =
  let tr = create ~enabled:true in
  let (n, gauges), t_on =
    Util.time (fun () -> replay tr ~stop:(fun i -> i > 0 && Util.now () > deadline))
  in
  let _, t_off =
    Util.time (fun () -> replay (create ~enabled:false) ~stop:(fun i -> i >= n))
  in
  (tr, n, gauges, 100.0 *. (t_on -. t_off) /. t_off)
