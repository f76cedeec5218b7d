//! The user-facing examples that assert what they print, run as tests.
//! Each stays runnable on its own with `cargo run --example <name>`.

#[path = "../examples/dma_buffer.rs"]
mod dma_buffer;
#[path = "../examples/litmus.rs"]
mod litmus;
#[path = "../examples/persistent_log.rs"]
mod persistent_log;
#[path = "../examples/security_flush.rs"]
mod security_flush;

/// The §4 litmus shapes and the Fig. 5 writeback scenarios.
#[test]
fn litmus_shapes_hold() {
    litmus::main();
}

/// A context-switch flush closes the probe timing channel.
#[test]
fn security_flush_closes_the_channel() {
    security_flush::main();
}

/// The append-only log recovers from every random crash.
#[test]
fn persistent_log_recovers() {
    persistent_log::main();
}

/// Cleaned DMA buffers reach memory; uncleaned ones go stale.
#[test]
fn dma_buffer_cleans_reach_memory() {
    dma_buffer::main();
}
