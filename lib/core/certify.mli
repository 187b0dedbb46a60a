(** Certificate construction.

    The bridge between the solver stack and the dependency-free
    {!Cert.Certificate} type: solvers hand over their internal evidence
    (flow network + certified cut, match covers + LP dual, verified
    gadget) and this module serializes it into the portable form the
    independent checker re-verifies. It lives in [lib/core] because the
    [cert] library cannot see [Flow]/[Graphdb]/[Hypergraph]. *)

val cut :
  net:Flow.Network.t ->
  source:int ->
  sink:int ->
  cut:Flow.Network.cut ->
  flow:int array ->
  fact_edge:(int * int) list ->
  forced:(int * int) list ->
  Cert.Certificate.t
(** Serialize a mincut weak-duality certificate: the whole network, the
    certified flow, the cut, the fact-edge mapping, and any facts forced
    into the witness before network construction ((fact id, weight)
    pairs, e.g. the single-letter-word facts of the BCL case). When the
    cut value is infinite, an all-Inf s-t path is recorded instead of
    cut edges. *)

val cut_facts : net:Flow.Network.t -> fact_edge:(int * int) list -> int list -> int list
(** [cut_facts ~net ~fact_edge eids]: the facts that the edges [eids]
    stand for under the [(edge id, fact id)] mapping, in the order of
    [eids]; edges mapped to no fact are skipped. Linear in the network:
    the mapping is indexed by edge id once. *)

val bounds :
  ?covers:int list list -> ?dual:float list -> Graphdb.Db.t -> Cert.Certificate.t
(** Serialize a hitting-set certificate over [d]'s facts. [covers] lists
    the fact-id support of every query match (omitted when match
    enumeration was not part of the solve); [dual] is a feasible dual
    vector for the covering LP, one multiplier per cover. *)

val trivial : string -> Cert.Certificate.t
(** [Trivial] with the given reason (["empty-language"],
    ["epsilon-in-language"], or ["query-unsatisfied"]). *)

val opaque : string -> Cert.Certificate.t
(** [Opaque] marker naming the algorithm that has no independent
    certificate (submodular minimization). *)

val hardness : language:string -> Hardness.outcome -> (Cert.Certificate.t, string) result
(** Serialize a verified hardness gadget into a replayable transcript:
    the completed gadget database, the finite language's words, every
    match's fact support, and the condensed odd path. [language] is the
    original query string, recorded for the record's reader. *)
