//! Synthetic Earth-observation scene model for the Earth+ reproduction.
//!
//! The paper evaluates on real Sentinel-2 and Planet imagery; this crate is
//! the substitute: a deterministic procedural Earth whose *statistics*
//! match what Earth+'s gains depend on —
//!
//! * how many 64×64 tiles change as a function of the time gap between two
//!   captures (§3, Figure 4);
//! * the cloud-coverage distribution (≈2/3 mean cover, ≈24 % of visits
//!   reference-grade — §3, Figure 5);
//! * per-capture illumination drift that is linear in pixel value (§5);
//! * per-band heterogeneity: ground bands change, air bands do not
//!   (Figure 14);
//! * snow-dominated locations whose albedo churns every capture
//!   (Figure 14, locations D and H).
//!
//! Unlike the real datasets, the scene exposes its ground truth (cloud
//! masks, noise-free reflectance), so the reproduction can verify detector
//! precision and false-negative rates exactly.
//!
//! # Example
//!
//! ```
//! use earthplus_scene::{LocationScene, SceneConfig};
//! use earthplus_scene::terrain::LocationArchetype;
//!
//! let scene = LocationScene::new(SceneConfig::quick(1, LocationArchetype::River));
//! let morning = scene.capture(10.0);
//! println!("cloud cover: {:.0}%", morning.cloud_fraction * 100.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod climate_variants;
pub mod clouds;
pub mod dataset;
pub mod illumination;
pub mod noise;
pub mod reflectance;
pub mod scene;
pub mod sensor;
mod strips;
pub mod temporal;
pub mod terrain;

pub use clouds::{CloudClimate, CloudField};
pub use dataset::{large_constellation, rich_content, DatasetConfig};
pub use illumination::IlluminationConfig;
pub use scene::{Capture, LocationScene, SceneConfig};
pub use sensor::SensorModel;
pub use temporal::{ChangeEvent, EventSchedule, SeasonalModel, SnowModel};
pub use terrain::{LandCover, LocationArchetype, TerrainMap};
