//! Chip sharding: whole chips on scoped threads, rendezvous only at
//! exchange windows.
//!
//! Chips are the unit of parallelism: each chip steps its own beat
//! serially ([`Chip::step_epoch`]), and the shards synchronize only every
//! [`exchange_period`](crate::ClusterConfig::exchange_period) chip epochs.
//! One `std::thread::scope` spans the whole run. The chips are dealt in
//! contiguous chunks, one per thread, capped at the host's hardware
//! threads: the calling thread steps the first chunk and each further
//! chunk gets one scoped thread that lives for the run. Per window a
//! thread receives `(window epochs, caps)` on its own channel, installs
//! its chips' caps, steps each chip through the whole window back to
//! back, and answers with their [`ChipSummary`] snapshots. The caller
//! gathers the answers in chip order and asks the
//! [`ClusterArbiter`](crate::ClusterArbiter) for fresh caps. The reduction
//! always runs on one thread in chip order — which is what keeps
//! [`ClusterStats`](crate::ClusterStats) bit-identical at any shard count.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use crate::arbiter::ClusterArbiter;
use crate::chip::Chip;
use crate::stats::ChipSummary;

/// What the sharded run hands back to the cluster runner.
pub(crate) struct ShardOutcome {
    /// Budget exchanges performed (windows minus the final one).
    pub exchanges: u64,
    /// Exchanges that moved at least one chip cap bitwise.
    pub rebudget_moves: u64,
    /// Largest window-mean cluster power observed at any window boundary,
    /// watts (chip-order sum of per-chip window means).
    pub peak_window_power_w: f64,
}

/// Runs `chips` for `epochs` chip epochs, sharded `shards` ways, with a
/// budget exchange every `period` epochs on at most `shards` threads.
/// Chips are dealt to threads in contiguous chunks; the caller passes
/// `shards >= 1` and `chips.len() >= 1`.
pub(crate) fn run_sharded(
    chips: &mut [Chip],
    arbiter: &mut ClusterArbiter,
    epochs: usize,
    period: usize,
    shards: usize,
) -> ShardOutcome {
    let n_chips = chips.len();
    // Divide the cap once before epoch 0 so every chip starts under a
    // cluster-granted budget (for a lone chip this is exactly the nominal
    // single-chip cap — bit-for-bit). Every window installs its caps
    // before stepping, the first window included.
    let caps = arbiter.bootstrap();
    // Window plan: full `period`-epoch windows plus a possibly-shorter
    // tail. Derived from config only, so it cannot depend on timing.
    let n_windows = epochs
        .div_ceil(period.max(1))
        .max(if epochs == 0 { 0 } else { 1 });
    if n_windows == 0 {
        for chip in chips.iter_mut() {
            chip.set_power_cap(caps[chip.index()]);
        }
        return ShardOutcome {
            exchanges: 0,
            rebudget_moves: 0,
            peak_window_power_w: 0.0,
        };
    }

    // Contiguous deal: ceil(n/threads) chips per thread, so chip order is
    // preserved within and across chunks. Shards beyond the hardware
    // threads fold into fewer, larger chunks.
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let chunk = n_chips.div_ceil(shards.min(hw));
    let mut caps: Arc<[f64]> = caps.into();
    let mut peak_window_power_w = 0.0f64;
    let mut summaries: Vec<ChipSummary> = Vec::with_capacity(n_chips);
    std::thread::scope(|s| {
        let mut chunks = chips.chunks_mut(chunk);
        let own = chunks.next().expect("at least one chip");
        let workers: Vec<_> = chunks
            .map(|chips| {
                let (window_tx, window_rx) = mpsc::channel::<(usize, Arc<[f64]>)>();
                let (summary_tx, summary_rx) = mpsc::channel();
                s.spawn(move || {
                    for (win_epochs, caps) in window_rx {
                        let mut out = Vec::with_capacity(chips.len());
                        step_window(chips, win_epochs, &caps, &mut out);
                        if summary_tx.send(out).is_err() {
                            return;
                        }
                    }
                });
                (window_tx, summary_rx)
            })
            .collect();
        for window in 0..n_windows {
            let win_epochs = (epochs - window * period).min(period);
            for (window_tx, _) in &workers {
                // A worker only hangs up by panicking; its closed summary
                // channel below ends the run.
                let _ = window_tx.send((win_epochs, Arc::clone(&caps)));
            }
            summaries.clear();
            step_window(own, win_epochs, &caps, &mut summaries);
            // Gather in chip order: chunks are contiguous runs, so
            // chunk-major order is chip order.
            for (_, summary_rx) in &workers {
                let Ok(chunk_summaries) = summary_rx.recv() else {
                    // The worker panicked: returning drops every window
                    // sender, and the scope joins and re-raises the panic.
                    return;
                };
                summaries.extend(chunk_summaries);
            }
            // Chip-order reduction: the window's cluster power is the sum
            // of per-chip window means.
            let window_power: f64 = summaries.iter().map(|s| s.avg_power_w).sum();
            if window_power > peak_window_power_w {
                peak_window_power_w = window_power;
            }
            if window + 1 < n_windows {
                caps = arbiter.rebudget(&summaries).into();
            }
        }
    });

    ShardOutcome {
        exchanges: arbiter.exchanges(),
        rebudget_moves: arbiter.rebudget_moves(),
        peak_window_power_w,
    }
}

/// Installs each chip's cap, steps it through one window and appends its
/// published summary to `out`, in chip order.
fn step_window(chips: &mut [Chip], win_epochs: usize, caps: &[f64], out: &mut Vec<ChipSummary>) {
    for chip in chips {
        chip.set_power_cap(caps[chip.index()]);
        // Per-chip wall clock covers stepping only; the gather is the
        // cluster's overhead.
        let t0 = Instant::now();
        for _ in 0..win_epochs {
            chip.step_epoch();
        }
        chip.add_wall(t0.elapsed().as_secs_f64());
        out.push(chip.publish());
    }
}
