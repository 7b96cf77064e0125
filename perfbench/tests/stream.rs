//! The job stream is a pure function of `(workload, seed)`.

use mffv_perfbench::gen::{JobStream, Workload};
use mffv_serve::Frame;

/// The first `n` jobs as the bytes a client would put on the wire.
fn stream_bytes(workload: Workload, seed: u64, n: usize) -> Vec<u8> {
    let stream = JobStream::new(workload, seed);
    let mut bytes = stream.setup_job().text.into_bytes();
    for i in 0..n {
        let job = stream.job(i);
        bytes.extend_from_slice(job.text.as_bytes());
        let submit = Frame::Submit {
            job_id: i as u64 + 1,
            spec: Box::new(job.spec),
        };
        bytes.extend_from_slice(&submit.to_wire_bytes());
    }
    bytes
}

#[test]
fn same_seed_gives_a_byte_identical_stream() {
    for workload in Workload::ALL {
        assert_eq!(
            stream_bytes(workload, 7, 48),
            stream_bytes(workload, 7, 48),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn a_different_seed_changes_the_stream() {
    for workload in Workload::ALL {
        assert_ne!(
            stream_bytes(workload, 7, 48),
            stream_bytes(workload, 8, 48),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn every_mixed_cycle_holds_the_same_class_mix() {
    let classes = |seed: u64, cycle: usize| {
        let stream = JobStream::new(Workload::ServeMixed, seed);
        let mut c: Vec<&str> = (cycle * 16..cycle * 16 + 16)
            .map(|i| stream.mixed_class(i))
            .collect();
        c.sort_unstable();
        c
    };
    let reference = classes(1, 0);
    assert_eq!(reference.len(), 16);
    for seed in [1, 2, 99] {
        for cycle in 0..4 {
            assert_eq!(classes(seed, cycle), reference);
        }
    }
}

#[test]
fn mixed_jobs_never_repeat_a_permeability() {
    let stream = JobStream::new(Workload::ServeMixed, 3);
    let mut texts: Vec<String> = (0..64).map(|i| stream.text(i)).collect();
    texts.sort();
    texts.dedup();
    assert_eq!(texts.len(), 64);
}
