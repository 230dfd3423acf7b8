type t = Sim.event

(* [schedule] reads the caller's delay on entry, before the charge,
   which yields, and hands it to [Sim.timer] through [span] once the
   charge is paid: nothing runs between that write and [Sim.timer]'s
   read. *)
let span = { Sim.seconds = 0. }

let schedule host d f x =
  let s = d.Sim.seconds in
  Machine.charge host.Host.mach Machine.Timer_op 0;
  span.seconds <- s;
  Sim.timer (Host.sim host) span f x

let none host = Sim.spent (Host.sim host)

let cancel host t =
  (* Cancel before charging: charging yields the fiber, and a due timer
     must not be able to fire in that window. *)
  let ok = Sim.cancel t in
  Machine.charge host.Host.mach Machine.Timer_op 0;
  ok

(* Crash teardown: cancel without charging the machine, so it is safe
   from a reboot hook running outside any fiber. *)
let abort = Sim.cancel
