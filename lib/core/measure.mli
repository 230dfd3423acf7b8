(** Measurement harness for the paper's experiments.

    Reproduces the methodology of section 4: latency is the averaged
    round-trip time of a null procedure with null arguments; throughput
    sends a series of large requests (1 KB to 16 KB) with null replies;
    the incremental cost is the least-squares slope of round-trip time
    over message size.  All times are virtual seconds from the
    simulator; the [runs]×[iters] double aggregation mirrors the
    paper's repeated 10,000-call runs (scaled down — the simulator is
    deterministic, so variance across runs is zero by construction and
    fewer iterations suffice). *)

type row = {
  row_name : string;
  latency_ms : float;  (** null-call round trip, msec *)
  throughput_kbs : float;
      (** 16 KB-request throughput, kbytes (1000 bytes) per second *)
  incr_cost_ms_per_kb : float;  (** msec per additional 1 KB *)
  client_cpu_ms : float;  (** client CPU time per 16 KB call *)
}

val latency : Netproto.World.t -> Stacks.endpoints -> float
(** Average null-call round trip in msec over 50 calls, after 3
    unrecorded ones.  Drives the simulator. *)

val probe_latency :
  Netproto.World.t -> Netproto.Probe.t -> peer:Xkernel.Addr.Ip.t -> float
(** Same for a Probe-based stack with empty probes (Table III rows
    without RPC). *)

val probe_sweep :
  Netproto.World.t -> Netproto.Probe.t -> peer:Xkernel.Addr.Ip.t ->
  (int * float) list
(** [[(16384, seconds per echo)]], averaged over 4 echoes after an
    empty one.  Note both directions carry the 16 KB (Probe echoes),
    unlike RPC's null replies. *)

val fit_slope : (int * float) list -> float
(** Least-squares slope in msec per KB over a [(bytes, seconds)]
    series.  Degenerate series — fewer than two points, or all sizes
    equal (zero variance in x) — have no slope and return [0.]. *)

val throughput_kbs : size:int -> float -> float
(** [throughput_kbs ~size seconds] = kbytes (1000 bytes)/second. *)

val row :
  Netproto.World.t -> Stacks.endpoints -> row
(** Full Table I/II row: latency, 16 KB throughput, incremental cost,
    client CPU per 16 KB call.  Throughput and incremental cost come
    from a sweep of 1 KB to 16 KB requests in 1 KB steps, 8 calls
    each. *)
