//! The `mimo-exp schema` reference text.
//!
//! One authoritative, greppable description of every spec key, its type,
//! its default, and which scenario kinds accept it. EXPERIMENTS.md
//! carries the narrative version; this is the terminal one.

/// The full schema reference printed by `mimo-exp schema`.
pub const SCHEMA_TEXT: &str = "\
mimo-exp spec schema (version 1)
================================

A spec is a TOML file: a top-level header, one scenario section named by
`kind`, and an optional [asserts] section. Run with
`mimo-exp run <spec.toml>`; check without running via
`mimo-exp validate <spec.toml|dir>`.

Top level
---------
schema      integer, required       must be 1
name        string,  required       [A-Za-z0-9_-]+; non-paper kinds write <name>.csv
kind        string,  required       paper | loop | cluster

[paper]                             (kind = \"paper\")
----------------------------------------------------
experiment  string, required        fig06 fig07 fig08 fig09 fig10 fig11 fig12
                                    tab-opt fleet-scale cluster-scale fault-sweep
  Dispatches to the named experiment exactly as its subcommand alias
  would — same code path, byte-identical CSVs.

[loop]                              (kind = \"loop\")
----------------------------------------------------
app         string,  required       any catalog workload
input_set   string,  default freq_cache     freq_cache | freq_cache_rob
governor    string,  default mimo           mimo | decoupled
seed        integer, default 2016
epochs      integer, required       --epochs overrides
[[loop.phases]]                     at least one; strictly increasing
  epoch     integer, required       first phase must start at 0
  ips       float,   required       BIPS target from this epoch on
  power     float,   required       watts target from this epoch on
  The runner drives one governed core through the piecewise-constant
  reference schedule and writes one summary row per phase.

[cluster]                           (kind = \"cluster\")
----------------------------------------------------
chips           integer, required   chips = 1 is a fleet: one chip, one arbiter
cores_per_chip  integer, required
shards          integer, default 1  --shards overrides; results identical at any value
epochs      integer, required       --epochs overrides
seed        integer, default 2016
power_cap   float,   default nominal (1.2 W/core); caps the cluster. Each
                                    chip is granted at most its nominal cap,
                                    so above nominal a chip runs at nominal
policy      string,  default runtime's     uniform | proportional | priority
                                    (each chip's arbiter)
input_set   string,  default freq_cache
apps        array of strings, default built-in mix; assigned round-robin
targets     array [ips, power], default runtime's
fault_rate  float,   default 0      transient faults per core-epoch
[[cluster.faults]]                  scheduled fault plan
  chip      integer, required       which chip the fault lands on
  core      integer, required
  kind      string,  required       stuck_sensor | nan_measurement |
                                    actuator_stuck_at | power_spike
  channel   integer                 stuck_sensor/nan_measurement only
  input     integer                 actuator_stuck_at only
  value     float                   actuator_stuck_at only
  factor    float                   power_spike only
  start     integer, required       first faulted epoch
  duration  integer, default permanent
[cluster.llc]                       shared-LLC contention per chip (default off)
  total_ways   integer, required
  sensitivity  float, default model's

[asserts]                           all optional
----------------------------------------------------
csv = [\"a.csv\", ...]               files the run must produce
[[asserts.digest]]                  cluster kind only
  epochs    integer, required       checked only at exactly this epoch count
  value     string,  required       16 hex digits (the stats digest)
[[asserts.tracking_error]]          loop/cluster kinds
  output    string,  required       ips | power
  max_pct   float,   required       mean tracking error ceiling, percent
  epochs    integer, optional       epoch gate, as for digest
[asserts.quarantined]               cluster kind only
  min       integer, default 0
  max       integer, default unbounded
  epochs    integer, optional       epoch gate
[asserts.invariant]                 re-run and byte-compare the CSVs
  jobs      array of integers       paper: job counts to compare; loop:
                                    plain determinism re-runs (one thread
                                    steps a core)
  shards    array of integers       cluster (and cluster-scale): shard counts

Epoch-gated assertions (digest, and any tracking_error/quarantined with
an `epochs` key) are skipped — not failed — when --epochs changes the
run length, so CI smoke runs at --epochs 50 stay green.
";
