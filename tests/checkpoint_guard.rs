//! Checkpoint error-path guard: every way a restore can go wrong must
//! surface as a typed [`CheckpointError`], never a panic — and the
//! happy path (interrupt, restore, run to the end) must stay bitwise
//! identical, including through the per-rank recovery envelope.

use coupled::{
    checkpoint, checkpoint_rank, restore, restore_rank, CheckpointError, Dataset, RankEngine,
};

fn sim() -> RankEngine {
    let mut cfg = Dataset::D1.config(0.02);
    cfg.seed = 777;
    RankEngine::new(cfg)
}

#[test]
fn truncated_file_roundtrip_is_a_typed_error() {
    let mut a = sim();
    for _ in 0..5 {
        a.dsmc_step();
    }
    let blob = checkpoint(&a);
    let dir = std::env::temp_dir().join("dsmc_pic_ckpt_guard");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("truncated.ckpt");
    // write the checkpoint, then truncate it mid-body as a crashed
    // writer would leave it
    std::fs::write(&path, &blob[..blob.len() - 7]).expect("write");
    let read = std::fs::read(&path).expect("read");
    let mut b = sim();
    assert_eq!(restore(&mut b, &read), Err(CheckpointError::Truncated));
    // an empty file is just as truncated
    std::fs::write(&path, b"").expect("write");
    let read = std::fs::read(&path).expect("read");
    assert_eq!(restore(&mut b, &read), Err(CheckpointError::Truncated));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_magic_and_bad_version_are_typed_errors() {
    let a = sim();
    let mut blob = checkpoint(&a);
    let mut b = sim();
    // wrong magic: some other file format entirely
    let mut wrong = blob.clone();
    wrong[..4].copy_from_slice(b"ELF\x7f");
    assert_eq!(restore(&mut b, &wrong), Err(CheckpointError::BadMagic));
    // a future version this build does not understand
    blob[4] = 99;
    assert!(matches!(
        restore(&mut b, &blob),
        Err(CheckpointError::BadVersion(99))
    ));
}

#[test]
fn only_version_4_restores_and_a_rejected_blob_leaves_sim_untouched() {
    // hand-build a v1 blob (magic, version 1, step, count, records) as
    // an old build would have written it: a typed BadVersion, not a
    // misparse
    let mut a = sim();
    for _ in 0..3 {
        a.dsmc_step();
    }
    let mut v1 = Vec::new();
    v1.extend_from_slice(b"DPIC");
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&(a.step_count as u64).to_le_bytes());
    v1.extend_from_slice(&(a.particles.len() as u64).to_le_bytes());
    for i in 0..a.particles.len() {
        particles::pack_particle(&a.particles.get(i), &mut v1);
    }
    let current = checkpoint(&a);
    assert_eq!(current[4..8], 4u32.to_le_bytes(), "the writer emits v4");
    let relabelled = |version: u32| {
        let mut blob = current.clone();
        blob[4..8].copy_from_slice(&version.to_le_bytes());
        blob
    };
    let mut b = sim();
    b.dsmc_step();
    let untouched = checkpoint(&b);
    for (version, blob) in [
        (1, v1),
        (2, relabelled(2)),
        (3, relabelled(3)),
        (5, relabelled(5)),
    ] {
        assert_eq!(
            restore(&mut b, &blob),
            Err(CheckpointError::BadVersion(version))
        );
        assert_eq!(checkpoint(&b), untouched, "rejected v{version} touched sim");
    }
}

#[test]
fn interrupt_restore_and_finish_is_bitwise_identical() {
    // the full kill-at-step-k story at the state level: run to k,
    // checkpoint through the per-rank envelope, "crash", restore into
    // a fresh state and run both to the end — bitwise equal.
    let k = 6;
    let total = 12;
    let mut a = sim();
    for _ in 0..k {
        a.dsmc_step();
    }
    let owner = vec![0u32; a.nm.num_coarse()];
    let envelope = checkpoint_rank(&a, &owner);

    let mut b = sim();
    let restored_owner = restore_rank(&mut b, 0, &envelope).expect("envelope restores");
    assert_eq!(restored_owner, owner);
    for _ in k..total {
        a.dsmc_step();
        b.dsmc_step();
    }
    assert_eq!(a.particles.len(), b.particles.len());
    for i in 0..a.particles.len() {
        assert_eq!(a.particles.get(i), b.particles.get(i), "particle {i}");
    }
    assert_eq!(a.rng, b.rng, "RNG streams diverged");
    assert_eq!(a.poisson.phi(), b.poisson.phi(), "potentials diverged");
    assert_eq!(
        a.injector.as_ref().map(|i| i.carry()),
        b.injector.as_ref().map(|i| i.carry()),
        "injector carries diverged"
    );
}
