//! The workload seed alone fixes every input the benchmark sends.

use softmem_perfbench::Workload;

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    for w in Workload::ALL {
        let a = w.stream_bytes(7);
        let b = w.stream_bytes(7);
        assert!(!a.is_empty(), "{}: empty stream", w.name());
        assert!(a == b, "{}: seed 7 gave two different streams", w.name());
        let c = w.stream_bytes(8);
        assert!(a != c, "{}: seeds 7 and 8 gave the same stream", w.name());
    }
}
