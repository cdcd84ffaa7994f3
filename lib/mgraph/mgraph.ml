(** Umbrella module for the multigraph substrate. *)

module Vec = Vec
module Arena = Arena
module Stats = Stats
module Multigraph = Multigraph
module Traversal = Traversal
module Euler = Euler
module Graph_gen = Graph_gen
module Graph_io = Graph_io
