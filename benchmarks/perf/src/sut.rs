//! Booting and stopping the system under test, in-process, through the
//! serving crates' public entry points only.

use crate::workload::Workload;
use apan_cluster::{start_gateway, GatewayConfig, GatewayHandle};
use apan_metrics::Clock;
use apan_serve::{Client, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A per-process directory under `benchmarks/perf/out/` for cold-tier
/// spill segments and snapshots, removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: AtomicUsize,
}

/// `benchmarks/perf/out/`: results, traces and scratch state.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl Scratch {
    pub fn new() -> std::io::Result<Self> {
        let root = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            next: AtomicUsize::new(0),
        })
    }

    /// A fresh path inside the scratch directory (nothing is created).
    pub fn fresh(&self, stem: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{stem}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// One booted deployment: a daemon, or a gateway with its shards.
pub struct Sut {
    shards: Vec<ServerHandle>,
    gateway: Option<GatewayHandle>,
    /// Where clients connect: the daemon, or the gateway.
    pub front: SocketAddr,
    /// Each daemon's own address (one entry for a single daemon).
    pub shard_addrs: Vec<SocketAddr>,
    /// Snapshot file of each daemon.
    pub snapshots: Vec<PathBuf>,
}

impl Sut {
    /// Builds the model(s) and boots the workload's deployment on
    /// ephemeral loopback ports.
    pub fn boot(w: &Workload, traced: bool, scratch: &Scratch) -> Result<Self, String> {
        let clustered = w.shards > 1;
        let mut shards = Vec::with_capacity(w.shards);
        let mut snapshots = Vec::with_capacity(w.shards);
        for id in 0..w.shards {
            let spill = w.budget_fraction.map(|_| scratch.fresh("spill"));
            let snapshot = scratch.fresh("snapshot");
            let cfg = w.serve_config(traced, Some(&snapshot), clustered.then_some((id, w.shards)));
            let handle = apan_serve::start(w.model(spill.as_deref()), cfg)
                .map_err(|e| format!("boot shard {id}: {e}"))?;
            shards.push(handle);
            snapshots.push(snapshot);
        }
        let shard_addrs: Vec<SocketAddr> = shards.iter().map(ServerHandle::addr).collect();
        let gateway = if clustered {
            for (i, shard) in shards.iter().enumerate() {
                let peers: Vec<SocketAddr> = shard_addrs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &a)| a)
                    .collect();
                shard.set_cluster_peers(&peers);
            }
            Some(
                start_gateway(GatewayConfig {
                    addr: "127.0.0.1:0".into(),
                    shards: shard_addrs.clone(),
                    clock: Clock::real(),
                    trace_buffer: if traced {
                        crate::workload::TRACE_BUFFER
                    } else {
                        0
                    },
                })
                .map_err(|e| format!("boot gateway: {e}"))?,
            )
        } else {
            None
        };
        let front = gateway.as_ref().map_or(shard_addrs[0], GatewayHandle::addr);
        Ok(Self {
            shards,
            gateway,
            front,
            shard_addrs,
            snapshots,
        })
    }

    /// A lockstep control connection to the front address.
    pub fn control(&self) -> Result<Client, String> {
        let mut c = Client::connect(self.front).map_err(|e| format!("connect: {e}"))?;
        c.set_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set timeout: {e}"))?;
        Ok(c)
    }

    /// Stops every daemon without a final snapshot and waits for all of
    /// their threads.
    pub fn stop(self) {
        if let Some(g) = self.gateway {
            g.stop();
        }
        for s in self.shards {
            s.crash();
        }
    }
}
