type spec =
  | Partition of { a : int list; b : int list }
  | Burst_loss of float
  | Link_flap of { dev : int; period : float }
  | Delay_spike of float
  | Crash of int
  | Wire_down of string
  | Wire_loss of { wire : string; p : float }

type window = { from_t : float; until_t : float; spec : spec }
type plan = window list

let validate ~n ~wires plan =
  let dev i =
    if i < 0 || i >= n then
      invalid_arg (Printf.sprintf "Chaos: device index %d out of range" i)
  in
  let named name =
    if not (List.mem_assoc name wires) then
      invalid_arg (Printf.sprintf "Chaos: unknown wire %S" name)
  in
  List.iter
    (fun w ->
      (* Each check is [not (x >= lo)], so a NaN fails it too. *)
      if not (w.until_t >= w.from_t) then
        invalid_arg "Chaos: window with until_t < from_t (or NaN)";
      match w.spec with
      | Partition { a; b } ->
          List.iter dev a;
          List.iter dev b
      | Burst_loss p ->
          if not (p >= 0. && p <= 1.) then
            invalid_arg "Chaos: loss probability outside [0, 1]"
      | Link_flap { dev = d; period } ->
          dev d;
          if not (period > 0.) then
            invalid_arg "Chaos: nonpositive or NaN flap period"
      | Delay_spike d ->
          if not (d >= 0.) then invalid_arg "Chaos: negative or NaN delay"
      | Crash d -> dev d
      | Wire_down name -> named name
      | Wire_loss { wire = name; p } ->
          named name;
          if not (p >= 0. && p <= 1.) then
            invalid_arg "Chaos: loss probability outside [0, 1]")
    plan

(* Seeds the rng streams of [Burst_loss] and of each [Wire_loss] wire. *)
let seed = 7

let apply ?(wires = []) ~wire ~devices plan =
  validate ~n:(Array.length devices) ~wires plan;
  let sim = Wire.sim wire in
  let at t f =
    let d = t -. Sim.now sim in
    if d <= 0. then f () else ignore (Sim.after sim d f)
  in
  let tap i = Netdev.attachment devices.(i) in
  (* Both directions of one pair. *)
  let set_pair op i j =
    if i <> j then begin
      op wire ~from:(tap i) ~to_:(tap j);
      op wire ~from:(tap j) ~to_:(tap i)
    end
  in
  let set_cut op a b =
    List.iter (fun i -> List.iter (fun j -> set_pair op i j) b) a
  in
  (* [dev] against everyone else. *)
  let set_link op d =
    Array.iteri (fun j _ -> set_pair op d j) devices
  in
  List.iter
    (fun w ->
      match w.spec with
      | Partition { a; b } ->
          at w.from_t (fun () -> set_cut Wire.block_pair a b);
          at w.until_t (fun () -> set_cut Wire.unblock_pair a b)
      | Link_flap { dev; period } ->
          (* Down for the first half of each period, up for the second;
             guaranteed back up when the window closes. *)
          let t = ref w.from_t in
          while !t < w.until_t do
            at !t (fun () -> set_link Wire.block_pair dev);
            at (min (!t +. (period /. 2.)) w.until_t) (fun () ->
                set_link Wire.unblock_pair dev);
            t := !t +. period
          done
      | Crash d -> at w.from_t (fun () -> Host.reboot (Netdev.host devices.(d)))
      | Wire_down name ->
          (* Unplug the named access link for the window. *)
          let target = List.assoc name wires in
          at w.from_t (fun () -> Wire.set_down target true);
          at w.until_t (fun () -> Wire.set_down target false)
      | Burst_loss _ | Delay_spike _ | Wire_loss _ -> ())
    plan;
  (* Loss bursts and delay spikes need a per-frame decision, so they
     compile to a fault hook; everything above is pure scheduling. *)
  let hooked =
    List.filter
      (fun w ->
        match w.spec with Burst_loss _ | Delay_spike _ -> true | _ -> false)
      plan
  in
  if hooked <> [] then begin
    let rng = Random.State.make [| seed |] in
    Wire.set_fault_hook wire
      (Some
         (fun _n _msg ->
           let t = Sim.now sim in
           let active w = w.from_t <= t && t < w.until_t in
           let burst =
             List.find_map
               (fun w ->
                 match w.spec with
                 | Burst_loss p when active w -> Some p
                 | _ -> None)
               hooked
           in
           let spike =
             List.fold_left
               (fun acc w ->
                 match w.spec with
                 | Delay_spike d when active w -> acc +. d
                 | _ -> acc)
               0. hooked
           in
           (* Background faults still apply, except a burst window
              replaces the background drop decision with its own. *)
           let faults = ref (Wire.draw_faults wire) in
           if spike > 0. then faults := Wire.Delay spike :: !faults;
           (match burst with
           | Some p ->
               faults := List.filter (fun f -> f <> Wire.Drop) !faults;
               if Random.State.float rng 1. < p then
                 faults := Wire.Drop :: !faults
           | None -> ());
           !faults))
  end;
  (* Named-wire loss is the same per-frame decision on a *different*
     wire, so each named wire with loss windows gets its own hook (and
     its own deterministic rng stream). *)
  let loss_names =
    List.fold_left
      (fun acc w ->
        match w.spec with
        | Wire_loss { wire = name; _ } when not (List.mem name acc) ->
            name :: acc
        | _ -> acc)
      [] plan
    |> List.rev
  in
  List.iteri
    (fun i name ->
      let target = List.assoc name wires in
      let windows =
        List.filter_map
          (fun w ->
            match w.spec with
            | Wire_loss { wire = n; p } when n = name ->
                Some (w.from_t, w.until_t, p)
            | _ -> None)
          plan
      in
      let rng = Random.State.make [| seed + 101 + i |] in
      Wire.set_fault_hook target
        (Some
           (fun _n _msg ->
             let t = Sim.now sim in
             let p =
               List.find_map
                 (fun (from_t, until_t, p) ->
                   if from_t <= t && t < until_t then Some p else None)
                 windows
             in
             let faults = ref (Wire.draw_faults target) in
             (match p with
             | Some p ->
                 faults := List.filter (fun f -> f <> Wire.Drop) !faults;
                 if Random.State.float rng 1. < p then
                   faults := Wire.Drop :: !faults
             | None -> ());
             !faults)))
    loss_names

let spec_json = function
  | Partition { a; b } ->
      [
        ("spec", Json.Str "partition");
        ("a", Json.Arr (List.map (fun i -> Json.Int i) a));
        ("b", Json.Arr (List.map (fun i -> Json.Int i) b));
      ]
  | Burst_loss p -> [ ("spec", Json.Str "burst_loss"); ("p", Json.Float p) ]
  | Link_flap { dev; period } ->
      [
        ("spec", Json.Str "link_flap");
        ("dev", Json.Int dev);
        ("period", Json.Float period);
      ]
  | Delay_spike d ->
      [ ("spec", Json.Str "delay_spike"); ("delay", Json.Float d) ]
  | Crash d -> [ ("spec", Json.Str "crash"); ("dev", Json.Int d) ]
  | Wire_down name -> [ ("spec", Json.Str "wire_down"); ("wire", Json.Str name) ]
  | Wire_loss { wire; p } ->
      [
        ("spec", Json.Str "wire_loss");
        ("wire", Json.Str wire);
        ("p", Json.Float p);
      ]

let to_json plan =
  Json.Arr
    (List.map
       (fun w ->
         Json.Obj
           (("from", Json.Float w.from_t)
           :: ("until", Json.Float w.until_t)
           :: spec_json w.spec))
       plan)
