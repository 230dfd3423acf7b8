(** Scripted fault injection.

    A chaos {!plan} is a declarative, seeded schedule of network and
    host faults — time-windowed partitions, loss bursts, link flaps,
    delay spikes and host crashes — compiled onto {!Wire} primitives
    and simulator events.  The same plan with the same seed produces
    bit-identical runs, so robustness scenarios are as reproducible as
    the paper's timing experiments.

    Device and host indices refer to positions in the [devices] array
    handed to {!apply}. *)

type spec =
  | Partition of { a : int list; b : int list }
      (** Cut the network between device sets [a] and [b]: both
          directions of every (a, b) pair are blocked for the window. *)
  | Burst_loss of float
      (** Drop each frame with this probability during the window,
          superseding the wire's background drop rate. *)
  | Link_flap of { dev : int; period : float }
      (** [dev]'s link goes down for the first half of each [period],
          up for the second, repeating across the window. *)
  | Delay_spike of float
      (** Add this much extra delivery delay to every frame during the
          window (congestion). *)
  | Crash of int
      (** Reboot [dev]'s host at the window's start ([until_t] is
          ignored); sessions, reply caches and timers on that host die
          with it. *)
  | Wire_down of string
      (** Unplug the named wire for the window ({!Wire.set_down}): every
          delivery on it is suppressed and counted [partitioned].  Names
          resolve through [apply]'s [?wires] argument — the per-port
          access links of a switched topology. *)
  | Wire_loss of { wire : string; p : float }
      (** Drop each frame on the named wire with probability [p] during
          the window, superseding that wire's background drop rate. *)

type window = { from_t : float; until_t : float; spec : spec }
(** Absolute virtual times; the window is active on [\[from_t,
    until_t)]. *)

type plan = window list

val apply :
  ?wires:(string * Wire.t) list ->
  wire:Wire.t ->
  devices:Netdev.t array ->
  plan ->
  unit
(** Compile [plan] onto [wire]: partitions and flaps schedule
    {!Wire.block_pair}/{!Wire.unblock_pair} events, crashes schedule
    {!Host.reboot}, and — only when the plan contains [Burst_loss] or
    [Delay_spike] windows — a fault hook is installed that applies
    those inside their windows and falls through to the wire's
    probabilistic rates ({!Wire.draw_faults}) outside them.

    [?wires] names additional wires for [Wire_down]/[Wire_loss] specs
    (a switched topology's per-port access links; see
    [World.switched_wires]).  [Wire_down] schedules {!Wire.set_down};
    [Wire_loss] installs a per-frame fault hook on the named wire, with
    an rng stream of its own per wire, seeded from a constant.

    Must be called before [Sim.run], with the simulator at a time no
    later than any window's [from_t].

    @raise Invalid_argument on an out-of-range device index, a wire
    name absent from [?wires], [until_t < from_t], a nonpositive flap
    period, a negative delay spike, or a loss probability outside
    [0, 1]; a NaN in any of these fails its check too. *)

val to_json : plan -> Json.t
(** The plan as a JSON array, one object per window:
    [{"from": t, "until": t, "spec": "partition", ...spec fields}]. *)
