type t = {
  name : string;
  ip : Addr.Ip.t;
  eth : Addr.Eth.t;
  mach : Machine.t;
  mutable boot_id : int;
  mutable reboot_hooks : (unit -> unit) list; (* newest first *)
}

let create sim ~name ~ip ~eth ?(profile = Machine.xkernel_sun3) () =
  {
    name;
    ip;
    eth;
    mach = Machine.create sim profile;
    boot_id = 1;
    reboot_hooks = [];
  }

let sim h = Machine.sim h.mach
let at_reboot h f = h.reboot_hooks <- f :: h.reboot_hooks

let reboot h =
  h.boot_id <- h.boot_id + 1;
  (* Registration order: lower layers registered first get to reset
     first.  Hooks must be callable from outside a fiber (a test can
     crash a host between runs), so they may not charge the machine or
     block. *)
  List.iter (fun f -> f ()) (List.rev h.reboot_hooks)
