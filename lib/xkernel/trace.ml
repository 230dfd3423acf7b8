let src = Logs.Src.create "xkernel" ~doc:"x-kernel protocol tracing"

module Log = (val Logs.src_log src : Logs.LOG)

let reporter_installed = ref false

let set_level level =
  if not !reporter_installed then begin
    Logs.set_reporter (Logs.format_reporter ());
    reporter_installed := true
  end;
  Logs.Src.set_level src level

let stamp sim = Sim.now sim *. 1e3

let enabled () =
  match Logs.Src.level src with Some Logs.Debug -> true | _ -> false

(* Test the level before building the message closure: [packet] runs at
   every layer of every frame, and with tracing off it must cost nothing. *)
let packet sim ~host ~proto ~dir msg =
  if enabled () then
    let arrow = match dir with `Send -> "->" | `Recv -> "<-" in
    Log.debug (fun m ->
        m "[%8.3fms] %s %s %s %a" (stamp sim) host proto arrow Msg.pp msg)

(* The same level test for [debugf]: off, [ikfprintf] consumes the
   arguments without formatting anything, but applying it to them
   still builds its closures. *)
let debugf sim ~host fmt =
  if enabled () then
    Format.kasprintf
      (fun s -> Log.debug (fun m -> m "[%8.3fms] %s %s" (stamp sim) host s))
      fmt
  else Format.ikfprintf ignore Format.err_formatter fmt
