//! # `traj-datasets` — synthetic trajectory datasets and I/O
//!
//! The paper evaluates on four real GPS datasets (Truck, Cattle, Car, Taxi)
//! that are not redistributable. This crate generates synthetic datasets whose
//! *statistical shape* matches the published Table 3 characteristics — number
//! of objects, time-domain length, average trajectory length, sampling
//! regularity — and whose movement structure (groups travelling together on a
//! background of independent movers) exercises exactly the code paths the
//! convoy algorithms care about.
//!
//! * [`DatasetProfile`]: the four named profiles plus fully custom profiles.
//!   Each profile can be scaled down (`scaled`) so that unit tests and CI run
//!   in seconds while the benchmark harness can run closer to paper scale.
//! * [`generate`]: the group-structured random-walk generator with planted
//!   ground-truth convoys and irregular sampling.
//! * [`io`]: plain-CSV import/export so real datasets can be dropped in.
//! * [`container`]: the binary `.convoy` columnar container — time-blocked,
//!   CRC-guarded, block-index-pruned windowed reads.
//! * [`source`]: [`trajectory::TrajectorySource`] backends over both formats
//!   plus the extension/magic sniffing factory [`open_source`].
//!
//! ## Example
//!
//! ```
//! use traj_datasets::{DatasetProfile, generate};
//!
//! let dataset = generate(&DatasetProfile::truck().scaled(0.05), 42);
//! assert!(dataset.database.len() > 0);
//! assert!(!dataset.ground_truth.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod container;
pub mod generator;
pub mod ground_truth;
pub mod io;
pub mod noise;
pub mod profile;
pub mod source;

pub use container::{write_container, write_container_file, ContainerError, ContainerReader};
pub use generator::{generate, GeneratedDataset};
pub use ground_truth::PlantedConvoy;
pub use io::{read_csv, write_csv};
pub use noise::{add_gps_noise, downsample, stride_sample};
pub use profile::{DatasetProfile, MovementModel, ProfileName};
pub use source::{open_source, sniff_format, ContainerSource, CsvSource, InputFormat};
