(** The uniform protocol interface (section 2 of the paper).

    Every protocol — ethernet driver, IP, UDP, the virtual protocols,
    the RPC layers — is a {!t} supporting the same five operations:

    - [open_]: a high-level protocol actively creates a session;
    - [open_enable]: a high-level protocol passively registers with a
      lower one (server side);
    - [open_done]: completes passive session creation when a message
      arrives (invoked by the protocol's own [demux]);
    - [demux]: switches a message arriving from below to one of the
      protocol's sessions;
    - [control]: reads and sets object-dependent parameters.

    Sessions — run-time instances holding connection state — support
    [push] (send down), [pop] (deliver up, invoked by the owning
    protocol's [demux]), [control] and [close].

    Two architectural properties the paper depends on are enforced here:

    - {b Late binding}: [open_] takes the lower protocol object at run
      time; nothing about upper protocols is compiled into lower ones.
    - {b Light-weight layers}: {!push} and {!deliver} are single OCaml
      calls; the only cost they add is the calibrated
      [Layer_crossing] (or [Virtual_op]) charge, so "it costs only one
      procedure call to pass a message from a high-level protocol to a
      low-level protocol". *)

type t
(** A protocol object, instantiated on one host. *)

type session
(** A session object: an instance of a protocol created at run time by
    [open_] or [open_done]. *)

type ops = {
  open_ : upper:t -> Part.t -> session;
      (** Actively create a session.  [upper] is the invoking protocol —
          messages arriving on the session are delivered to it. *)
  open_enable : upper:t -> Part.t -> unit;
      (** Passively register: when a matching message arrives, the
          protocol completes session creation with [open_done] and
          delivers to [upper]. *)
  open_done : upper:t -> Part.t -> session;
      (** Complete passive creation.  Invoked by the protocol's own
          [demux]; exposed so tests can drive it directly. *)
  demux : lower:session -> Msg.t -> unit;
      (** Switch a message arriving from [lower] to one of this
          protocol's sessions (possibly creating it via [open_done]). *)
  p_control : Control.req -> Control.reply;
}

type session_ops = {
  push : Msg.t -> unit;
  pop : Msg.t -> unit;
      (** Invoked (via {!pop}) by the owning protocol's [demux]. *)
  s_control : Control.req -> Control.reply;
  close : unit -> unit;
}

val create : host:Host.t -> name:string -> ?virtual_:bool -> unit -> t
(** A fresh protocol object with no behaviour; {!set_ops} installs it.
    [virtual_] marks header-less virtual protocols, whose layer
    crossings are charged at the cheaper [Virtual_op] rate and which are
    drawn distinctly by {!pp_graph}. *)

val set_ops : t -> ops -> unit
(** Install behaviour.  Raises [Invalid_argument] if already set. *)

val name : t -> string
val host : t -> Host.t
val is_virtual : t -> bool

val stats : t -> Stats.t
(** The protocol's counter table, created (and registered globally as
    ["host/NAME"]) by {!create}.  {!push} and {!deliver} account layer
    crossings here (["pushes"], ["demuxes"], ["crossings"],
    ["push-bytes"], ["demux-bytes"]); protocol implementations add
    their own counters to the same table so one {!Stats.dump} shows
    everything. *)

val declare_below : t -> t list -> unit
(** Record the static protocol graph (who this protocol was configured
    on top of) — used only by {!pp_graph}, mirroring the configuration
    figures of the paper. *)

val below : t -> t list

(* Protocol operations.  Each checks that ops are installed. *)

val open_ : t -> upper:t -> Part.t -> session
val open_enable : t -> upper:t -> Part.t -> unit
val open_done : t -> upper:t -> Part.t -> session
val control : t -> Control.req -> Control.reply

val deliver : t -> lower:session -> Msg.t -> unit
(** [deliver p ~lower msg] invokes [p]'s [demux] from below, charging
    one receive-side layer crossing on [p]'s host and counting
    ["demuxes"]/["crossings"]/["demux-bytes"] in {!stats}.  This is the
    single procedure call between layers on the inbound path. *)

(* Session constructors and operations. *)

val make_session : t -> ?name:string -> session_ops -> session
(** [make_session p ops] is a session owned by [p].  [name] defaults to
    the protocol's name. *)

val session_name : session -> string
val session_proto : session -> t

val session_id : session -> int
(** An integer unique among the sessions of one protocol object —
    usable as a hash key where the session record itself cannot be (its
    closures rule out structural equality).  Sessions of different
    protocol objects may share an id, so check {!session_proto} first. *)

val push : session -> Msg.t -> unit
(** [push s msg] sends [msg] down through [s], charging one send-side
    layer crossing on the owning host and counting
    ["pushes"]/["crossings"]/["push-bytes"] in the owning protocol's
    {!stats}. *)

val pop : session -> Msg.t -> unit
(** [pop s msg] delivers [msg] up into [s]; charged as part of the
    [deliver] crossing, so it is free. *)

val session_control : session -> Control.req -> Control.reply
val close : session -> unit

val control_via :
  (Control.req -> Control.reply) list -> Control.req -> Control.reply
(** [control_via handlers req] tries each handler in order, returning
    the first non-[Unsupported] reply — how a layer forwards control
    operations it does not understand to the layer below (the mechanism
    behind the paper's "Information Loss" discussion). *)

val pp_graph : Format.formatter -> t list -> unit
(** Render the protocol graph rooted at the given top-level protocols as
    ASCII, virtual protocols marked with ["(virtual)"] — the
    configuration diagrams of Figures 1–3. *)
