(** Umbrella module for the edge-coloring substrate. *)

module Edge_coloring = Edge_coloring
module Recolor = Recolor
module Greedy_coloring = Greedy_coloring
module Vizing = Vizing
module Shannon = Shannon
