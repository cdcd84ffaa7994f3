let hits = ref 0
let bump () = incr hits
