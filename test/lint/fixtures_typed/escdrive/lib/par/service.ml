let served = ref 0

let drive x =
  incr served;
  x
