(** Simulated hosts.

    A host bundles an identity (name, IP address, ethernet address), a
    CPU cost model and a boot identifier.  Protocol objects are
    instantiated per host; the two-machine experiments of the paper
    build two hosts on one wire.

    {!reboot} models a crash/restart: the boot identifier advances and
    every protocol that registered an {!at_reboot} hook discards its
    volatile state (outstanding transactions, at-most-once reply
    caches), as a real restart would. *)

type t = {
  name : string;
  ip : Addr.Ip.t;
  eth : Addr.Eth.t;
  mach : Machine.t;
  mutable boot_id : int;
      (** Monotonic boot identifier carried in Sprite RPC headers to
          give at-most-once semantics across server restarts. *)
  mutable reboot_hooks : (unit -> unit) list;
}

val create :
  Sim.t ->
  name:string ->
  ip:Addr.Ip.t ->
  eth:Addr.Eth.t ->
  ?profile:Machine.profile ->
  unit ->
  t
(** [create sim ~name ~ip ~eth ()] is a host with the default
    {!Machine.xkernel_sun3} profile. *)

val sim : t -> Sim.t

val at_reboot : t -> (unit -> unit) -> unit
(** [at_reboot h f] runs [f] on every subsequent {!reboot} of [h], in
    registration order.  Protocols use this to drop state a crash would
    lose.  [f] must not block or charge the machine: reboot can be
    invoked from outside any fiber. *)

val reboot : t -> unit
(** [reboot h] crashes and restarts [h]: increments [h.boot_id] — so
    servers restarted mid-call make clients observe an at-most-once
    failure rather than a re-execution — and runs the {!at_reboot}
    hooks, which tear down sessions and clear reply caches. *)
