type t = Timeout | Rebooted | Busy | Wrong_shard of int | Remote of int

let to_string = function
  | Timeout -> "timeout"
  | Rebooted -> "server rebooted"
  | Busy -> "channel busy"
  | Wrong_shard v -> Printf.sprintf "wrong shard (map version %d)" v
  | Remote s -> Printf.sprintf "remote status %d" s
