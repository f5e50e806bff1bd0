(* Compound collections, the selection pool and the brute-force oracle
   shared by the two served workloads. *)

open Gql_graph

(* --- compounds ----------------------------------------------------------- *)

(* A compound as the benchmark models it: named atoms a0.. with an
   element label, and named bonds. The served program only ever sees the
   [Graph.t] built from it; the model is what the oracle and the crash
   probe compare against. *)
type compound = {
  c_name : string;
  c_labels : string array;  (** atom i is named "a<i>" *)
  c_stamps : int array;
      (** atom i's [w] attribute: the sequence number of the last write
          that relabelled it (0 = never), so no write sequence ever
          returns a compound to an earlier state *)
  mutable c_bonds : (string * int * int * int) list;  (** name, u, v, order *)
}

let atom_tuple l w =
  Tuple.make ~tag:"atom"
    (("label", Value.Str l) :: (if w = 0 then [] else [ ("w", Value.Int w) ]))

let bond_tuple o = Tuple.make [ ("bond", Value.Int o) ]

let to_graph c =
  let b = Graph.Builder.create ~name:c.c_name () in
  Array.iteri
    (fun i l ->
      ignore
        (Graph.Builder.add_node b ~name:(Printf.sprintf "a%d" i)
           (atom_tuple l c.c_stamps.(i))))
    c.c_labels;
  List.iter
    (fun (name, u, v, o) ->
      ignore (Graph.Builder.add_edge b ~name ~tuple:(bond_tuple o) u v))
    (List.rev c.c_bonds);
  Graph.Builder.build b

let bond_order g e =
  match Tuple.find (Graph.edge g e).Graph.etuple "bond" with
  | Some (Value.Int o) -> o
  | _ -> 0

(* [Chem.generate]'s molecules, with every atom and bond named so DML
   statements can address them. *)
let compounds ~seed ~n =
  List.map
    (fun g ->
      let bonds =
        Graph.fold_edges g ~init:[] ~f:(fun acc e ed ->
            (Printf.sprintf "b%d" e, ed.Graph.src, ed.Graph.dst, bond_order g e) :: acc)
      in
      {
        c_name = Option.get (Graph.name g);
        c_labels = Array.init (Graph.n_nodes g) (Graph.label g);
        c_stamps = Array.make (Graph.n_nodes g) 0;
        c_bonds = bonds;
      })
    (Gql_datasets.Chem.generate ~seed ~n_compounds:n ())
  |> Array.of_list

let copy c = { c with c_labels = Array.copy c.c_labels; c_stamps = Array.copy c.c_stamps }

let write_store path compounds =
  let st = Gql_storage.Store.create path in
  Array.iter (fun c -> ignore (Gql_storage.Store.add_graph st (to_graph c))) compounds;
  Gql_storage.Store.close st

(* --- selection pool ------------------------------------------------------ *)

(* A linear or cyclic selection: node labels, and edges with an
   optional required bond order. *)
type selection = {
  s_name : string;
  s_labels : string array;
  s_edges : (int * int * int option) array;
}

let sel s_name labels edges =
  { s_name; s_labels = Array.of_list labels; s_edges = Array.of_list edges }

(* The pool, most popular first: chains (N-C-S, O-C-O, C-N-C, S-S),
   double-bond predicates (C=O, N=C) and heterocycle rings. *)
let pool =
  [|
    sel "ncs" [ "N"; "C"; "S" ] [ (0, 1, None); (1, 2, None) ];
    sel "co_double" [ "C"; "O" ] [ (0, 1, Some 2) ];
    sel "n_ring5" [ "N"; "C"; "C"; "C"; "C" ]
      [ (0, 1, None); (1, 2, None); (2, 3, None); (3, 4, None); (4, 0, None) ];
    sel "oco" [ "O"; "C"; "O" ] [ (0, 1, None); (1, 2, None) ];
    sel "nc_double" [ "N"; "C" ] [ (0, 1, Some 2) ];
    sel "s_ring6" [ "S"; "C"; "C"; "C"; "C"; "C" ]
      [ (0, 1, None); (1, 2, None); (2, 3, None); (3, 4, None); (4, 5, None); (5, 0, None) ];
    sel "cnc" [ "C"; "N"; "C" ] [ (0, 1, Some 1); (1, 2, Some 1) ];
    sel "ss" [ "S"; "S" ] [ (0, 1, None) ];
  |]

(* [for graph P {...} exhaustive in doc(D) return graph {...}]: the
   template copies the matched atoms and composes one bond per pattern
   edge carrying the matched bond order. *)
let query_text ~doc s =
  let b = Buffer.create 256 in
  Buffer.add_string b "for graph P {";
  Array.iteri (fun i l -> Printf.bprintf b " node n%d where label=%S;" i l) s.s_labels;
  Array.iteri
    (fun i (u, v, o) ->
      Printf.bprintf b " edge e%d (n%d, n%d)%s;" i u v
        (match o with Some o -> Printf.sprintf " where bond=%d" o | None -> ""))
    s.s_edges;
  Printf.bprintf b " } exhaustive in %s return graph { node %s;" doc
    (String.concat ", "
       (List.init (Array.length s.s_labels) (Printf.sprintf "P.n%d")));
  Array.iteri
    (fun i (u, v, _) ->
      Printf.bprintf b " edge r%d (P.n%d, P.n%d) <bond=P.e%d.bond>;" i u v i)
    s.s_edges;
  Buffer.add_string b " };";
  Buffer.contents b

(* --- oracle -------------------------------------------------------------- *)

let pattern_graph s =
  let b = Graph.Builder.create () in
  let vs = Array.map (Graph.Builder.add_labeled_node b) s.s_labels in
  Array.iter (fun (u, v, _) -> ignore (Graph.Builder.add_edge b vs.(u) vs.(v))) s.s_edges;
  Graph.Builder.build b

(* Embeddings of the selection in one graph by brute-force backtracking
   ([Iso]), the bond predicates checked on the mapped edges. *)
let count_in s pattern g =
  Iso.find_embeddings ~pattern ~target:g ()
  |> List.filter (fun phi ->
         Array.for_all
           (fun (u, v, o) ->
             match o with
             | None -> true
             | Some o ->
               Graph.exists_edge_between g phi.(u) phi.(v) ~f:(fun e ->
                   bond_order g e = o))
           s.s_edges)
  |> List.length

(* A returned graph carries what its selection demands: one atom per
   pattern node with the pattern's labels, one bond per pattern edge
   between the right atoms with the required order. *)
let valid_result s rg =
  let k = Array.length s.s_labels in
  Graph.n_nodes rg = k
  && Graph.n_edges rg = Array.length s.s_edges
  && Array.for_all2 String.equal (Array.init k (Graph.label rg)) s.s_labels
  && Array.for_all
       (fun (u, v, o) ->
         Graph.exists_edge_between rg u v ~f:(fun e ->
             match o with None -> true | Some o -> bond_order rg e = o))
       s.s_edges

(* Parse every returned graph back and check it against its selection. *)
let check_results what s graphs =
  List.iter
    (fun text ->
      let ok =
        match Gql_core.Gql.graph_of_string text with
        | rg -> valid_result s rg
        | exception _ -> false
      in
      Util.check ok "%s %s: bad result graph %S" what s.s_name text)
    graphs
