(** Umbrella module for the storage-cluster simulator: cost models and
    fault policies over {!Migration.Engine}'s flight log. *)

module Disk = Disk
module Network = Network
module Placement = Placement
module Cluster = Cluster
module Bandwidth = Bandwidth
module Simulator = Simulator
module Fault = Fault
module Async_exec = Async_exec
module Size_balance = Size_balance
module Trace = Trace
