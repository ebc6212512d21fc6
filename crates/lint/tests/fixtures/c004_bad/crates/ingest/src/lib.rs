//! C004 trigger: `bytes_written` is registered but not cataloged, and the
//! catalog's `load_ns` shorthand names a metric no code registers.
fn instruments(reg: &Registry) {
    let save = reg.histogram("ldp.ingest.store.save_ns");
    let bytes = reg.counter("ldp.ingest.store.bytes_written");
}
