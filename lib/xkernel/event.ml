type t = Sim.event

let schedule host d f x =
  Machine.charge host.Host.mach Machine.Timer_op 0;
  Sim.timer (Host.sim host) d f x

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
