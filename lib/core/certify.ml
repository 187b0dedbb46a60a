module Db = Graphdb.Db
module Net = Flow.Network
module C = Cert.Certificate

let capacity = function Net.Finite w -> C.Fin w | Net.Inf -> C.Inf

let serialize_edges net =
  List.init (Net.edge_count net) (fun eid ->
      let s, d, cap = Net.edge_info net eid in
      (s, d, capacity cap))

(* An s-t path over Inf edges only. When the min cut is infinite one must
   exist (if every s-t path crossed a finite edge, those finite edges
   would form a finite cut), and it is the certificate: any cut has to
   sever it at infinite cost. *)
let inf_path net ~source ~sink =
  let nv = Net.vertex_count net in
  let adj = Array.make nv [] in
  for eid = Net.edge_count net - 1 downto 0 do
    let s, d, cap = Net.edge_info net eid in
    if cap = Net.Inf then adj.(s) <- (eid, d) :: adj.(s)
  done;
  let prev = Array.make nv None in
  let seen = Array.make nv false in
  seen.(source) <- true;
  let q = Queue.create () in
  Queue.add source q;
  while not (Queue.is_empty q) do
    let at = Queue.pop q in
    List.iter
      (fun (eid, d) ->
        if not seen.(d) then begin
          seen.(d) <- true;
          prev.(d) <- Some (eid, at);
          Queue.add d q
        end)
      adj.(at)
  done;
  if not seen.(sink) then None
  else begin
    let rec back at acc =
      if at = source then acc
      else match prev.(at) with Some (eid, p) -> back p (eid :: acc) | None -> acc
    in
    Some (back sink [])
  end

let cut_facts ~net ~fact_edge eids =
  let fact_of_edge = Array.make (Net.edge_count net) (-1) in
  List.iter (fun (eid, fid) -> fact_of_edge.(eid) <- fid) fact_edge;
  List.filter_map
    (fun eid -> if fact_of_edge.(eid) >= 0 then Some fact_of_edge.(eid) else None)
    eids

let cut ~net ~source ~sink ~(cut : Net.cut) ~flow ~fact_edge ~forced =
  let edges = serialize_edges net in
  (* Fact weights restated from the network's own fact-edge capacities:
     the construction (build_network) sets capacity = multiplicity, and
     the checker re-verifies the equality, so a mutation of either side
     is caught. *)
  let weights =
    List.filter_map
      (fun (eid, fid) ->
        match Net.edge_info net eid with
        | _, _, Net.Finite w -> Some (fid, w)
        | _, _, Net.Inf -> None)
      fact_edge
  in
  let finite = cut.Net.value <> Net.Inf in
  C.Cut
    {
      vertices = Net.vertex_count net;
      source;
      sink;
      edges;
      flow = Array.to_list flow;
      cut_edges = (if finite then cut.Net.edges else []);
      fact_edges = fact_edge;
      forced;
      weights;
      inf_path = (if finite then [] else Option.value ~default:[] (inf_path net ~source ~sink));
    }

let bounds ?covers ?dual d =
  C.Bounds
    {
      fact_weights = List.map (fun (fid, _) -> (fid, Db.mult d fid)) (Db.facts d);
      covers;
      dual;
    }

let trivial why = C.Trivial { why }
let opaque algorithm = C.Opaque { algorithm }

let hardness ~language (o : Hardness.outcome) =
  let v = o.Hardness.verification in
  if not v.Gadgets.ok then Error "gadget verification failed"
  else
    match v.Gadgets.odd_path_length with
    | None -> Error "gadget verification carries no odd-path length"
    | Some path_length -> (
        match Automata.Lang.words o.Hardness.language with
        | None -> Error "gadget language is not finite"
        | Some words ->
            let c = Gadgets.complete o.Hardness.gadget in
            let facts =
              List.map
                (fun (id, (f : Db.fact)) ->
                  (id, f.Db.src, String.make 1 f.Db.label, f.Db.dst))
                (Db.facts c.Gadgets.db')
            in
            Ok
              (C.Hardness
                 {
                   language;
                   words;
                   facts;
                   f_in = c.Gadgets.f_in;
                   f_out = c.Gadgets.f_out;
                   matches = Hypergraph.edges v.Gadgets.matches;
                   condensed = Hypergraph.edges v.Gadgets.condensed;
                   path_length;
                 }))
