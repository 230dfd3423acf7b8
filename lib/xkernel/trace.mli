(** Structured tracing for protocol debugging.

    Thin wrapper over [logs] with one source per subsystem and helpers
    that include virtual timestamps.  Disabled by default; tests and the
    CLI enable it with {!set_level}. *)

val set_level : Logs.level option -> unit
(** Enables the default [Fmt] reporter on first call. *)

val packet :
  Sim.t -> host:string -> proto:string -> dir:[ `Send | `Recv ] ->
  Msg.t -> unit
(** [packet sim ~host ~proto ~dir msg] logs one packet event at debug
    level with the current virtual time. *)

val enabled : unit -> bool
(** Whether debug tracing is on.  A {!debugf} that is off still builds
    a closure per argument it is applied to, so a site on a per-call
    path tests this first. *)

val debugf : Sim.t -> host:string -> ('a, Format.formatter, unit) format -> 'a
