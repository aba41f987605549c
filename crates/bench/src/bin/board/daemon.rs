//! The daemon under test, booted in-process the way `gent serve` boots it:
//! `Router::builder → add_(loaded_)snapshot → Server::bind_router → run`,
//! default `GenTConfig`, a real loopback socket.

use std::net::SocketAddr;
use std::path::Path;
use std::thread::JoinHandle;

use gent_core::GenTConfig;
use gent_serve::{Router, RouterBuilder, ServeConfig, Server, ServerHandle};
use gent_store::LoadedLake;

/// Worker threads of the daemon. Pinned (not `nproc`) so a bigger machine
/// measures the same shape; 2 is the core count of the box the bounds
/// were taken on.
pub const WORKERS: usize = 2;

/// The routing name the board's one lake is served under.
const LAKE_NAME: &str = "main";

/// A running daemon; [`Daemon::stop`] shuts it down and joins its thread.
pub struct Daemon {
    /// The loopback address it listens on (ephemeral port).
    pub addr: SocketAddr,
    handle: ServerHandle,
    runner: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Boot from a snapshot file, opened lazily by the router itself — the
    /// cold path: nothing decoded, index not thawed.
    pub fn boot_snapshot(path: &Path) -> Result<Daemon, String> {
        Daemon::boot(|b| b.add_snapshot(LAKE_NAME, path))
    }

    /// Boot around a lake the caller already opened from `path` (and
    /// possibly warmed) — what `gent serve` does after its open/`--eager`
    /// step. The slot remembers `path`, so ingest and reload work.
    pub fn boot_loaded(loaded: LoadedLake, path: &Path) -> Result<Daemon, String> {
        Daemon::boot(|b| b.add_loaded_snapshot(LAKE_NAME, loaded, path))
    }

    fn boot(add: impl FnOnce(&mut RouterBuilder) -> Result<(), String>) -> Result<Daemon, String> {
        let router = build_router(add)?;
        let cfg =
            ServeConfig { addr: "127.0.0.1:0".into(), threads: WORKERS, ..ServeConfig::default() };
        let server = Server::bind_router(&cfg, router).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        let handle = server.handle().map_err(|e| format!("handle: {e}"))?;
        let runner = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, handle, runner })
    }

    /// Stop accepting, drain, join. Clients must have dropped their
    /// keep-alive sockets first, or the drain waits out the idle timeout.
    pub fn stop(self) -> Result<(), String> {
        self.handle.stop();
        match self.runner.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon exited with {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// A router over one lake, built like the daemon's — the traced run calls
/// `Router::respond` on one of these directly, without a socket.
pub fn build_router(
    add: impl FnOnce(&mut RouterBuilder) -> Result<(), String>,
) -> Result<Router, String> {
    let mut builder = Router::builder(GenTConfig::default());
    add(&mut builder)?;
    builder.build()
}

/// A socket-less router over the snapshot at `path`, opened lazily.
pub fn router_over_snapshot(path: &Path) -> Result<Router, String> {
    build_router(|b| b.add_snapshot(LAKE_NAME, path))
}
