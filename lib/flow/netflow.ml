(** Umbrella module for the max-flow substrate: {!Max_flow.dinic} on a
    row-major network, and {!Bmatching.peel}, which runs it over the
    paper's Figure 3 network for Theorem 4.1's Step 4. *)

module Max_flow = Max_flow
module Bmatching = Bmatching
