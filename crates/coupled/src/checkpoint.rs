//! Binary checkpoint / restart of a running simulation.
//!
//! Long plume runs (the paper's are 100+ DSMC steps at 10⁹ particles)
//! need restartability. A checkpoint captures every piece of evolving
//! state the meshes and matrices (deterministic functions of the
//! [`crate::config::SimConfig`]) do not fix: the step counter, the
//! RNG streams, the injector's fractional-particle carry, the Poisson
//! solver's warm-start potential (which also reconstructs E), the
//! adaptively ratcheted NTC `sigma_g_max` table, and the particle
//! population. A restored run therefore finishes **bitwise identical**
//! to the uninterrupted run.
//!
//! Checkpoints live only inside a process (the recovery store of
//! [`crate::session`], the job server's replay), so there is one
//! format and no reader for any other version.
//!
//! Format (little-endian): magic `DPIC`, version u32 (= 4), step u64,
//! RNG state 4×u64, injector carry f64, potential count u64 + f64s,
//! `sigma_g_max` count u64 + f64s, the two auxiliary RNG streams
//! (`rng_dsmc` then `rng_pump`, 4×u64 each — in the prelude, before
//! the particle count, because the particle section must fill the rest
//! of the blob exactly), particle count u64, then the particle
//! population **lane-wise** mirroring the SoA buffer: all `px` (f64
//! bits), `py`, `pz`, `vx`, `vy`, `vz`, all cells (u32), species (u8),
//! ids (u64) — checkpointing is a straight sweep per lane instead of a
//! per-particle gather.

use crate::engine::RankEngine;
use particles::{ParticleBuffer, PACKED_SIZE};
use rand::rngs::StdRng;

const MAGIC: &[u8; 4] = b"DPIC";
const VERSION: u32 = 4;
/// Magic, version and step counter.
const HEADER_LEN: usize = 4 + 4 + 8;

/// Errors from [`restore`].
#[derive(Debug, PartialEq, Eq)]
pub enum CheckpointError {
    BadMagic,
    BadVersion(u32),
    Truncated,
    /// A field does not match the simulation it is restored into
    /// (different mesh resolution or collision table size).
    Mismatch,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a dsmc-pic checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::Mismatch => {
                write!(f, "checkpoint does not match this configuration")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

fn put_u64s(buf: &mut Vec<u8>, words: impl IntoIterator<Item = u64>) {
    for w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

fn put_f64s(buf: &mut Vec<u8>, values: &[f64]) {
    put_u64s(buf, values.iter().map(|v| v.to_bits()));
}

/// Serialize the restartable state of `sim`.
pub fn checkpoint(sim: &RankEngine) -> Vec<u8> {
    let n = sim.particles.len();
    let phi = sim.poisson.phi();
    let sigma = sim.collisions.sigma_g_max();
    let mut buf = Vec::with_capacity(
        HEADER_LEN + 32 + 8 + 8 + phi.len() * 8 + 8 + sigma.len() * 8 + 64 + 8 + n * PACKED_SIZE,
    );
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    put_u64s(&mut buf, [sim.step_count as u64]);
    put_u64s(&mut buf, sim.rng.state());
    let carry = sim.injector.as_ref().map_or(0.0, |inj| inj.carry());
    put_u64s(&mut buf, [carry.to_bits()]);
    put_u64s(&mut buf, [phi.len() as u64]);
    put_f64s(&mut buf, phi);
    put_u64s(&mut buf, [sigma.len() as u64]);
    put_f64s(&mut buf, sigma);
    // aux streams in the prelude — the particle section must fill the
    // remainder of the blob exactly
    put_u64s(&mut buf, sim.rng_dsmc.state());
    put_u64s(&mut buf, sim.rng_pump.state());
    put_u64s(&mut buf, [n as u64]);
    // lane-wise particle body: one contiguous sweep per SoA lane
    let p = &sim.particles;
    for lane in [&p.px, &p.py, &p.pz, &p.vx, &p.vy, &p.vz] {
        put_f64s(&mut buf, lane);
    }
    for &c in &p.cell {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    buf.extend_from_slice(&p.species);
    put_u64s(&mut buf, p.id.iter().copied());
    buf
}

/// Serialize one rank of a decomposed run: the coarse-cell ownership
/// map this rank was running under, followed by the rank engine's full
/// state. The envelope is what the engine-level recovery loop
/// (`coupled::session`) stores each cadence step and replays from
/// after a rank death — the owner map must travel with the state
/// because the restored engine's injector is a function of it.
///
/// Format: `[owner_len u64 LE][owner u32 LE…][checkpoint blob]`.
pub fn checkpoint_rank(sim: &RankEngine, owner: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + owner.len() * 4);
    put_u64s(&mut out, [owner.len() as u64]);
    for &o in owner {
        out.extend_from_slice(&o.to_le_bytes());
    }
    out.extend_from_slice(&checkpoint(sim));
    out
}

/// Split `n` fixed-width little-endian words off the front of `buf`.
/// `n` comes from the blob, so the byte length is overflow-checked.
fn take_words<'a, const W: usize>(
    buf: &mut &'a [u8],
    n: usize,
) -> Result<&'a [[u8; W]], CheckpointError> {
    let (head, rest) = n
        .checked_mul(W)
        .and_then(|len| buf.split_at_checked(len))
        .ok_or(CheckpointError::Truncated)?;
    *buf = rest;
    Ok(head.as_chunks().0)
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, CheckpointError> {
    Ok(u64::from_le_bytes(take_words(buf, 1)?[0]))
}

fn take_rng_state(buf: &mut &[u8]) -> Result<[u64; 4], CheckpointError> {
    let mut state = [0u64; 4];
    for (s, w) in state.iter_mut().zip(take_words(buf, 4)?) {
        *s = u64::from_le_bytes(*w);
    }
    Ok(state)
}

fn take_f64s<'a>(
    buf: &mut &'a [u8],
    n: usize,
) -> Result<impl Iterator<Item = f64> + 'a, CheckpointError> {
    let words = take_words(buf, n)?;
    Ok(words.iter().map(|w| f64::from_bits(u64::from_le_bytes(*w))))
}

/// Restore a [`checkpoint_rank`] envelope into rank `me`'s engine.
/// Rebuilds the injector from the stored ownership map *before*
/// restoring the state body, so the injector carry lands in the rebuilt
/// injector and the continuation stays bitwise identical. Returns the
/// ownership map for the caller to resume under.
pub fn restore_rank(
    sim: &mut RankEngine,
    me: usize,
    data: &[u8],
) -> Result<Vec<u32>, CheckpointError> {
    let mut buf = data;
    let n = take_u64(&mut buf)?;
    if n != sim.nm.num_coarse() as u64 {
        return Err(CheckpointError::Mismatch);
    }
    let owner: Vec<u32> = take_words(&mut buf, n as usize)?
        .iter()
        .map(|w| u32::from_le_bytes(*w))
        .collect();
    sim.claim_inlet(&owner, me);
    restore(sim, buf)?;
    Ok(owner)
}

/// Restore a checkpoint into `sim` (which must have been built from
/// the same `SimConfig`). Replaces the particle population, step
/// counter, the three RNG streams, injector carry, warm-start
/// potential (reconstructing E) and NTC `sigma_g_max` table, making
/// the continuation bitwise identical to the uninterrupted run. On
/// any error `sim` is left untouched.
pub fn restore(sim: &mut RankEngine, data: &[u8]) -> Result<(), CheckpointError> {
    let mut buf = data;
    if buf.len() < HEADER_LEN {
        return Err(CheckpointError::Truncated);
    }
    if take_words(&mut buf, 1)?[0] != *MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(take_words(&mut buf, 1)?[0]);
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let step = take_u64(&mut buf)? as usize;

    let rng_state = take_rng_state(&mut buf)?;
    let carry = f64::from_bits(take_u64(&mut buf)?);
    if take_u64(&mut buf)? != sim.poisson.num_nodes() as u64 {
        return Err(CheckpointError::Mismatch);
    }
    let phi: Vec<f64> = take_f64s(&mut buf, sim.poisson.num_nodes())?.collect();
    if take_u64(&mut buf)? != sim.collisions.sigma_g_max().len() as u64 {
        return Err(CheckpointError::Mismatch);
    }
    let sigma: Vec<f64> = take_f64s(&mut buf, sim.collisions.sigma_g_max().len())?.collect();
    let dsmc_state = take_rng_state(&mut buf)?;
    let pump_state = take_rng_state(&mut buf)?;

    // the count is untrusted: a wrapped `n * PACKED_SIZE` must not pass
    // for the true remainder and reach `with_capacity(n)`
    let n = take_u64(&mut buf)?;
    if n.checked_mul(PACKED_SIZE as u64) != Some(buf.len() as u64) {
        return Err(CheckpointError::Truncated);
    }
    let n = n as usize;
    let mut particles = ParticleBuffer::with_capacity(n);
    let p = &mut particles;
    for lane in [
        &mut p.px, &mut p.py, &mut p.pz, &mut p.vx, &mut p.vy, &mut p.vz,
    ] {
        lane.extend(take_f64s(&mut buf, n)?);
    }
    let cells = take_words(&mut buf, n)?;
    p.cell.extend(cells.iter().map(|w| u32::from_le_bytes(*w)));
    p.species
        .extend_from_slice(take_words::<1>(&mut buf, n)?.as_flattened());
    let ids = take_words(&mut buf, n)?;
    p.id.extend(ids.iter().map(|w| u64::from_le_bytes(*w)));
    debug_assert!(particles.lanes_consistent());

    sim.particles = particles;
    sim.step_count = step;
    sim.rng = StdRng::from_state(rng_state);
    if let Some(inj) = sim.injector.as_mut() {
        inj.set_carry(carry);
    }
    sim.poisson.set_phi(&phi);
    sim.efield.refresh(&sim.nm.fine, &phi);
    sim.collisions.set_sigma_g_max(&sigma);
    sim.rng_dsmc = StdRng::from_state(dsmc_state);
    sim.rng_pump = StdRng::from_state(pump_state);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Dataset;

    fn sim() -> RankEngine {
        let mut cfg = Dataset::D1.config(0.02);
        cfg.seed = 404;
        RankEngine::new(cfg)
    }

    #[test]
    fn roundtrip_preserves_particles_and_step() {
        let mut a = sim();
        for _ in 0..8 {
            a.dsmc_step();
        }
        let blob = checkpoint(&a);

        let mut b = sim();
        restore(&mut b, &blob).unwrap();
        assert_eq!(b.step_count, a.step_count);
        assert_eq!(b.particles.len(), a.particles.len());
        for i in 0..a.particles.len() {
            assert_eq!(a.particles.get(i), b.particles.get(i));
        }
    }

    #[test]
    fn restored_run_finishes_byte_identical() {
        // interrupt at step 6, restore into a fresh state, finish both
        // runs: the checkpoint must make the continuation bitwise
        // identical through the unified engine — particles, RNG
        // stream, warm-start potential and all.
        let mut a = sim();
        for _ in 0..6 {
            a.dsmc_step();
        }
        let blob = checkpoint(&a);
        let mut b = sim();
        restore(&mut b, &blob).unwrap();
        for _ in 0..5 {
            a.dsmc_step();
            b.dsmc_step();
        }
        assert_eq!(a.particles.len(), b.particles.len());
        for i in 0..a.particles.len() {
            assert_eq!(
                a.particles.get(i),
                b.particles.get(i),
                "particle {i} diverged"
            );
        }
        assert_eq!(a.rng, b.rng, "RNG streams diverged");
        assert_eq!(a.poisson.phi(), b.poisson.phi(), "potentials diverged");
    }

    #[test]
    fn restored_run_continues_stably() {
        let mut a = sim();
        for _ in 0..6 {
            a.dsmc_step();
        }
        let blob = checkpoint(&a);
        let mut b = sim();
        restore(&mut b, &blob).unwrap();
        // continue both; populations stay in the same ballpark
        for _ in 0..6 {
            a.dsmc_step();
            b.dsmc_step();
        }
        let rel = (a.particles.len() as f64 - b.particles.len() as f64).abs()
            / a.particles.len().max(1) as f64;
        assert!(rel < 0.1, "{} vs {}", a.particles.len(), b.particles.len());
    }

    #[test]
    fn other_versions_are_bad_version_and_leave_sim_untouched() {
        let mut a = sim();
        for _ in 0..4 {
            a.dsmc_step();
        }
        let blob = checkpoint(&a);
        assert_eq!(blob[4..8], 4u32.to_le_bytes(), "the writer emits v4");
        let mut b = sim();
        b.dsmc_step();
        let untouched = checkpoint(&b);
        for version in [1u32, 2, 3, 5] {
            let mut other = blob.clone();
            other[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                restore(&mut b, &other),
                Err(CheckpointError::BadVersion(version))
            );
            assert_eq!(checkpoint(&b), untouched);
        }
    }

    #[test]
    fn overflowing_particle_counts_are_truncated_not_allocated() {
        // the count field is the last 8 bytes of an empty simulation's
        // blob; the particle section must be exactly `count * 61` bytes
        let mut b = sim();
        let mut blob = checkpoint(&b);
        let at = blob.len() - 8;
        blob[at..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(restore(&mut b, &blob), Err(CheckpointError::Truncated));
        // 61 is odd, hence invertible mod 2^64: with one trailing byte
        // the count 61^-1 makes a wrapping `count * 61` equal the true
        // remainder (Newton iteration doubles the correct bits)
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(inv.wrapping_mul(PACKED_SIZE as u64)));
        }
        assert_eq!(inv.wrapping_mul(PACKED_SIZE as u64), 1);
        blob[at..].copy_from_slice(&inv.to_le_bytes());
        blob.push(0);
        assert_eq!(restore(&mut b, &blob), Err(CheckpointError::Truncated));
        assert_eq!(b.particles.len(), 0);
    }

    #[test]
    fn subcycled_pumped_restore_is_bitwise() {
        // with k_sub_dsmc > 1 and a partial pump both aux streams are
        // consumed every step: a restore must carry them so the
        // continuation stays bitwise identical
        let mut cfg = Dataset::D1.config(0.02);
        cfg.seed = 404;
        cfg.k_sub_dsmc = 2;
        cfg.pump_prob = Some(0.6);
        let mut a = RankEngine::new(cfg.clone());
        for _ in 0..6 {
            a.dsmc_step();
        }
        let blob = checkpoint(&a);
        let mut b = RankEngine::new(cfg);
        restore(&mut b, &blob).unwrap();
        for _ in 0..5 {
            a.dsmc_step();
            b.dsmc_step();
        }
        assert_eq!(a.particles.len(), b.particles.len());
        for i in 0..a.particles.len() {
            assert_eq!(a.particles.get(i), b.particles.get(i));
        }
        assert_eq!(a.rng_dsmc, b.rng_dsmc, "dsmc aux stream diverged");
        assert_eq!(a.rng_pump, b.rng_pump, "pump aux stream diverged");
    }

    #[test]
    fn rejects_garbage() {
        let mut s = sim();
        assert_eq!(restore(&mut s, b"nope"), Err(CheckpointError::Truncated));
        assert_eq!(restore(&mut s, &[0u8; 64]), Err(CheckpointError::BadMagic));
        // corrupt the version field
        let mut blob = checkpoint(&s);
        blob[4] = 0xFF;
        assert!(matches!(
            restore(&mut s, &blob),
            Err(CheckpointError::BadVersion(_))
        ));
        // truncate the body
        let blob = checkpoint(&s);
        if blob.len() > 30 {
            assert_eq!(
                restore(&mut s, &blob[..blob.len() - 1]),
                Err(CheckpointError::Truncated)
            );
        }
    }

    #[test]
    fn rank_envelope_roundtrips_owner_and_state() {
        let mut a = sim();
        for _ in 0..5 {
            a.dsmc_step();
        }
        // an ownership map that gives rank 0 every coarse cell
        let owner = vec![0u32; a.nm.num_coarse()];
        let blob = checkpoint_rank(&a, &owner);

        let mut b = sim();
        let restored_owner = restore_rank(&mut b, 0, &blob).unwrap();
        assert_eq!(restored_owner, owner);
        assert_eq!(b.step_count, a.step_count);
        assert_eq!(b.particles.len(), a.particles.len());
        assert!(b.injector.is_some(), "owner map gives rank 0 the inlet");
        assert_eq!(
            b.injector.as_ref().unwrap().carry(),
            a.injector.as_ref().unwrap().carry(),
            "carry must land in the rebuilt injector"
        );
    }

    #[test]
    fn rank_envelope_rejects_bad_owner_maps() {
        let a = sim();
        let owner = vec![0u32; a.nm.num_coarse()];
        let blob = checkpoint_rank(&a, &owner);

        let mut b = sim();
        // short header
        assert_eq!(
            restore_rank(&mut b, 0, &blob[..4]),
            Err(CheckpointError::Truncated)
        );
        // owner map sized for a different mesh
        let wrong = checkpoint_rank(&a, &[0u32; 3]);
        assert_eq!(
            restore_rank(&mut b, 0, &wrong),
            Err(CheckpointError::Mismatch)
        );
        // owner list cut off mid-array
        assert_eq!(
            restore_rank(&mut b, 0, &blob[..8 + 2]),
            Err(CheckpointError::Truncated)
        );
    }

    #[test]
    fn empty_simulation_roundtrips() {
        let a = sim();
        let blob = checkpoint(&a);
        let mut b = sim();
        restore(&mut b, &blob).unwrap();
        assert_eq!(b.particles.len(), 0);
        assert_eq!(b.step_count, 0);
    }
}
