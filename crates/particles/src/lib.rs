//! Particle substrate: SoA storage, species registry, Maxwellian
//! sampling, and the migration wire format shared by the exchange
//! strategies.

#![deny(unsafe_code)]

pub mod buffer;
pub mod pack;
pub mod sample;
pub mod species;

pub use buffer::{Particle, ParticleBuffer, SortScratch};
pub use pack::{
    pack_index, pack_particle, pack_selected, pack_selected_into, unpack_all, unpack_particle,
    PACKED_SIZE,
};
pub use species::{Species, SpeciesTable, Vhs, KB, MASS_H, QE};
