(* Lifecycle of one `threadfuser serve` child: fresh socket, cache and
   spool directory per start; ready once STATS answers; SIGTERM + waitpid
   to stop; every file removed afterwards. *)

module Client = Threadfuser_serve.Client

type t = {
  pid : int;
  dir : string;
  socket : string;  (* relative: a checkout path may exceed sun_path *)
  mutable live : bool;
}

let ready_deadline_s = 30.
let stop_deadline_s = 20.

let live : t list ref = ref []

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o700
    end
  in
  go path

let counter = ref 0

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let log_tail d =
  try
    let s = Common.read_file (Filename.concat d.dir "daemon.log") in
    let n = String.length s in
    if n > 2000 then String.sub s (n - 2000) 2000 else s
  with Sys_error _ -> ""

let forget d =
  d.live <- false;
  live := List.filter (fun x -> x != d) !live;
  rm_rf d.dir

(* SIGTERM, then wait; SIGKILL if the drain outlives its deadline. *)
let stop d =
  if d.live then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Common.now () +. stop_deadline_s in
    let rec wait () =
      if exited d.pid then ()
      else if Common.now () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
    in
    wait ();
    forget d
  end

let stop_all () = List.iter stop !live

let start ~cli ~root ~workload ~workers =
  incr counter;
  let dir = Printf.sprintf "%s/d%d-%d" root (Unix.getpid ()) !counter in
  rm_rf dir;
  mkdir_p (Filename.concat dir "tmp");
  let socket = Filename.concat dir "s.sock" in
  let args =
    [| cli; "serve"; workload; "--workers"; string_of_int workers; "-j"; "1";
       "--cache-dir"; Filename.concat dir "cache"; "--socket"; socket |]
  in
  (* session spools go to the pass directory, not the system temp dir *)
  let env =
    Array.append
      [| "TMPDIR=" ^ Filename.concat (Sys.getcwd ()) (Filename.concat dir "tmp") |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"TMPDIR=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o600
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null; Unix.close log)
      (fun () -> Unix.create_process_env cli args env null log log)
  in
  let d = { pid; dir; socket; live = true } in
  live := d :: !live;
  let deadline = Common.now () +. ready_deadline_s in
  let rec await () =
    match Client.stats ~socket_path:socket () with
    | _ -> d
    | exception (Unix.Unix_error _ | End_of_file) ->
        if exited pid then begin
          let tail = log_tail d in
          forget d;
          failwith ("serve daemon exited before it was ready:\n" ^ tail)
        end
        else if Common.now () > deadline then begin
          stop d;
          failwith
            (Printf.sprintf "serve daemon not ready within %.0f s"
               ready_deadline_s)
        end
        else begin
          Unix.sleepf 0.02;
          await ()
        end
  in
  await ()
