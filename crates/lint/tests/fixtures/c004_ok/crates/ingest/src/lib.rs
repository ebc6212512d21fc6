//! C004 pass: every metric literal has a catalog row, every row a literal
//! (a shorthand row covers two names; labels are stripped).
fn instruments(reg: &Registry) {
    let save = reg.histogram("ldp.ingest.store.save_ns");
    let load = reg.histogram("ldp.ingest.store.load_ns");
    let routed = reg.counter_indexed("ldp.ingest.pipeline.reports_routed", 0);
    let namespaced = name.starts_with("ldp.");
}

#[cfg(test)]
mod tests {
    fn probe(reg: &Registry) {
        reg.counter("ldp.test.unit.hits");
    }
}
