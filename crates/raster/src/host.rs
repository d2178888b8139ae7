//! The host's core count, asked once per process.

use std::sync::OnceLock;

/// Cores the host offers this process
/// ([`std::thread::available_parallelism`]), asked once per process; 1
/// when the host cannot say. The one probe behind every split of work
/// over cores: scene render strips, the codec's ROI tile fan-out, and the
/// ground service's default ingest threads.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}
