(* suppression semantics: a reasoned [@lint.allow] silences the
   finding; a reasonless one is itself a finding *)

let lucky f =
  (try f () with _ -> ()) [@lint.allow "exception: fixture exercising suppression"]

let unlucky f = (try f () with _ -> ()) [@lint.allow "exception"]
let mystery f = (try f () with _ -> ()) [@lint.allow "not-a-rule: nope"]
