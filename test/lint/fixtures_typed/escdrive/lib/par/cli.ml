(* The drive reaches the pool through a wrapper and a local partial
   application, as in a command-line front end. *)
let fuzz_soak ~drive xs = Soak.soak ~drive xs

let fuzz xs =
  let soak = fuzz_soak xs in
  soak ~drive:Service.drive
