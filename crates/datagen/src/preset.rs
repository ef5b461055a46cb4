//! The six data-set presets of Table 2.

/// The six TIGER/Line 97 subsets used in the paper's evaluation (Table 2).
///
/// The numbers attached to each preset are the *paper's* object counts; a
/// [`crate::WorkloadSpec`] scales them down by its `scale` divisor so the
/// experiments run on a laptop while keeping every ratio intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// The state of New Jersey.
    NJ,
    /// The state of New York.
    NY,
    /// The first TIGER CD-ROM (15 states of the Eastern US).
    Disk1,
    /// CD-ROMs 4–6 (the Western half of the US).
    Disk4_6,
    /// CD-ROMs 1–3 (the Eastern half of the US).
    Disk1_3,
    /// All six CD-ROMs (the entire US).
    Disk1_6,
}

impl Preset {
    /// All presets in the order Table 2 lists them.
    pub fn all() -> [Preset; 6] {
        [
            Preset::NJ,
            Preset::NY,
            Preset::Disk1,
            Preset::Disk4_6,
            Preset::Disk1_3,
            Preset::Disk1_6,
        ]
    }

    /// The presets small enough for quick experiments (used by the default
    /// harness configuration).
    pub fn small() -> [Preset; 3] {
        [Preset::NJ, Preset::NY, Preset::Disk1]
    }

    /// Display name matching the paper's column headers.
    pub fn name(self) -> &'static str {
        match self {
            Preset::NJ => "NJ",
            Preset::NY => "NY",
            Preset::Disk1 => "DISK1",
            Preset::Disk4_6 => "DISK4-6",
            Preset::Disk1_3 => "DISK1-3",
            Preset::Disk1_6 => "DISK1-6",
        }
    }

    /// Number of road objects in the paper's data set.
    pub fn paper_road_objects(self) -> u64 {
        match self {
            Preset::NJ => 414_442,
            Preset::NY => 870_412,
            Preset::Disk1 => 6_030_844,
            Preset::Disk4_6 => 11_888_474,
            Preset::Disk1_3 => 17_199_848,
            Preset::Disk1_6 => 29_088_173,
        }
    }

    /// Number of hydrography objects in the paper's data set.
    pub fn paper_hydro_objects(self) -> u64 {
        match self {
            Preset::NJ => 50_853,
            Preset::NY => 156_567,
            Preset::Disk1 => 1_161_906,
            Preset::Disk4_6 => 3_446_094,
            Preset::Disk1_3 => 3_967_649,
            Preset::Disk1_6 => 7_413_353,
        }
    }

    /// Number of output pairs the paper reports for the road–hydro join.
    pub fn paper_output_pairs(self) -> u64 {
        match self {
            Preset::NJ => 130_756,
            Preset::NY => 421_110,
            Preset::Disk1 => 3_197_520,
            Preset::Disk4_6 => 8_554_133,
            Preset::Disk1_3 => 9_378_642,
            Preset::Disk1_6 => 17_938_533,
        }
    }

    /// Parses a preset from its display name (case-insensitive).
    pub fn parse(name: &str) -> Option<Preset> {
        let n = name.to_ascii_uppercase();
        Preset::all().into_iter().find(|p| p.name() == n)
    }
}

impl std::fmt::Display for Preset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        let sizes: Vec<u64> = Preset::all()
            .iter()
            .map(|p| p.paper_road_objects())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn table2_counts_match_the_paper() {
        assert_eq!(Preset::NJ.paper_road_objects(), 414_442);
        assert_eq!(Preset::NJ.paper_hydro_objects(), 50_853);
        assert_eq!(Preset::Disk1_6.paper_road_objects(), 29_088_173);
        assert_eq!(Preset::Disk1_6.paper_hydro_objects(), 7_413_353);
        assert_eq!(Preset::NY.paper_output_pairs(), 421_110);
    }

    #[test]
    fn roads_always_outnumber_hydro() {
        for p in Preset::all() {
            assert!(p.paper_road_objects() > p.paper_hydro_objects());
        }
    }

    #[test]
    fn parse_roundtrips_names() {
        for p in Preset::all() {
            assert_eq!(Preset::parse(p.name()), Some(p));
            assert_eq!(Preset::parse(&p.name().to_lowercase()), Some(p));
        }
        assert_eq!(Preset::parse("DISKX"), None);
        assert_eq!(format!("{}", Preset::Disk4_6), "DISK4-6");
    }

    #[test]
    fn small_presets_are_a_prefix_of_all() {
        assert_eq!(&Preset::all()[..3], &Preset::small()[..]);
    }
}
