(** Test-bed configuration: simulated hosts with standard stacks.

    Mirrors configuring an x-kernel instance: each node gets a device,
    ETH, ARP, IP, VIP and VIPaddr objects wired together.  {!create}
    builds the paper's test bed — Sun 3/75-profile hosts on one isolated
    10 Mb/s ethernet; {!create_internet} builds two wires joined by a
    forwarding router, for experiments where the peer is *not* on the
    local ethernet (VIP's remote case). *)

type node = {
  host : Xkernel.Host.t;
  dev : Xkernel.Netdev.t;
  eth : Eth.t;
  arp : Arp.t;
  ip : Ip.t;
  vip : Vip.t;
  vip_addr : Vip_addr.t;
}

type t = {
  sim : Xkernel.Sim.t;
  wire : Xkernel.Wire.t;
  nodes : node array;
}

val create :
  ?n:int -> ?profile:Xkernel.Machine.profile -> ?seed:int -> unit -> t
(** [create ()] is two hosts ([h0] = 10.0.0.1, [h1] = 10.0.0.2) on one
    wire.  [n] adds more hosts on the same wire.  Hosts run [profile]
    (default Sun 3/75); [seed] defaults to 42. *)

type fanin = {
  fan : t;
  server : node;  (** node 0 *)
  clients : node array;  (** nodes 1..n *)
}

val create_fanin :
  ?max_events:int -> ?clients:int -> ?seed:int -> unit -> fanin
(** [create_fanin ~clients ()] is the load-generation topology: one
    server plus [clients] (default 4) client hosts, all on one wire —
    {!create}[ ~n:(clients+1)] with the roles named.  [max_events]
    raises the simulator's runaway guard for million-call sweeps.  The load
    subsystem ({!Rpc.Load}) fans M client hosts into the single
    server. *)

type fanout = {
  fo : t;
  servers : node array;  (** nodes 0..servers-1 *)
  fo_clients : node array;  (** nodes servers.. *)
}

val create_fanout :
  ?max_events:int ->
  ?clients:int ->
  ?servers:int ->
  ?seed:int ->
  unit ->
  fanout
(** [create_fanout ~clients ~servers ()] is the replication topology: K
    server replicas (default 2) plus M client hosts (default 4), all on
    one wire.  Servers occupy node — and therefore {!devices} — indices
    [0..K-1], so a {!Xkernel.Chaos} plan can target replica [k] with
    [Crash k] directly. *)

val devices : t -> Xkernel.Netdev.t array
(** One device per node, in node order — the [devices] array a
    {!Xkernel.Chaos.apply} call wants. *)

val node : t -> int -> node
val ip_of : t -> int -> Xkernel.Addr.Ip.t

val run : t -> unit
(** Drive the simulator until nothing is left to do (delegates to
    {!Xkernel.Sim.run}). *)

val spawn : t -> (unit -> unit) -> unit

type internet = {
  inet_sim : Xkernel.Sim.t;
  west : t;  (** network 10.0.0.x, gateway 10.0.0.254 *)
  east : t;  (** network 10.0.1.x, gateway 10.0.1.254 *)
  router : node * node;  (** the router's two interfaces (west, east) *)
}

val create_internet : unit -> internet
(** Two 2-host ethernets of Sun 3/75 hosts joined by an IP router; hosts have their
    gateway configured, so cross-network traffic exercises IP
    forwarding while VIP detects non-locality via ARP failure. *)

(** {2 Switched star}

    Every host on its own labelled wire, joined by an N-port switch —
    the shared-medium bottleneck of the single-wire worlds replaced by
    per-host access links, so aggregate capacity scales with the number
    of servers until the switch itself saturates. *)

type port = {
  pt_host : Xkernel.Host.t;  (** carries the port's gateway address *)
  pt_dev : Xkernel.Netdev.t;
  pt_eth : Eth.t;
  pt_arp : Arp.t;
  pt_wire : Xkernel.Wire.t;
  pt_label : string;  (** ["s<k>"] for servers, ["c<j>"] for clients *)
}

type switched = {
  sw : fanout;
      (** the end hosts with roles named; [sw.fo.wire] is server 0's
          access link *)
  sw_ip : Ip.t;
      (** the switch's forwarding IP instance — the place to hang an
          in-network computation via {!Ip.set_forward_hook} *)
  sw_ports : port array;  (** port [i] faces node [i] *)
}

val create_switched :
  ?max_events:int ->
  ?clients:int ->
  ?servers:int ->
  ?profile:Xkernel.Machine.profile ->
  ?seed:int ->
  unit ->
  switched
(** [create_switched ~clients ~servers ()] (defaults 4 and 1) puts each
    of the [servers + clients] hosts on its own wire (network
    [10.0.<i>.x], gateway [10.0.<i>.254]) behind one switch.  Servers
    occupy node/port indices [0..servers-1], as in {!create_fanout}.
    End hosts run the Sun 3/75 profile; the switch's ports run
    {!Xkernel.Machine.switch_fabric}, which forwards minimum frames
    several times faster than a wire can carry them; [profile], when
    given, replaces both (a {!Xkernel.Machine.zero_cost} world prices
    the simulator alone).  Wires are labelled, so each registers its own
    [wire/<label>] stats table.

    Note that cross-wire {!Xkernel.Chaos.apply} [Partition] specs are
    meaningless here — attachments are per-wire; target a named wire
    with [Wire_down]/[Wire_loss] (via {!switched_wires}) or a host with
    [Crash] instead. *)

val switched_wires : switched -> (string * Xkernel.Wire.t) list
(** Label-to-wire pairs in port order — exactly the [?wires] argument
    {!Xkernel.Chaos.apply} wants. *)

val switch_machines : switched -> Xkernel.Machine.t array
(** The per-port fabric engines, for CPU accounting (port 0 also
    carries the switch's IP-level and in-network work). *)

val port_wire : switched -> label:string -> Xkernel.Wire.t
(** The named access link.
    @raise Invalid_argument on an unknown label. *)
