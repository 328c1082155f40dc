// Fixture: linted as `crates/core/src/stats.rs` — any non-supervisor,
// non-test module. Must trip `spawn-outside-supervisor` and nothing else.
pub fn fan_out() -> std::thread::JoinHandle<()> {
    std::thread::spawn(|| {})
}
