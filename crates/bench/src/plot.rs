//! Terminal scatter plots — the figure panels, rendered as text.
//!
//! The paper's figures are scatter plots of fairness metric (x) vs.
//! accuracy (y) with two overlaid series (e.g. gray = no tuning, red =
//! tuning). [`ScatterPlot`] renders the same panels in the terminal so a
//! harness run *shows* the figure, not just summary statistics; the raw
//! CSVs remain available for external plotting.

/// A two-series terminal scatter plot.
pub struct ScatterPlot {
    title: String,
    x_label: String,
    y_label: String,
    width: usize,
    height: usize,
    series: Vec<(char, Vec<(f64, f64)>)>,
    x_range: Option<(f64, f64)>,
    y_range: Option<(f64, f64)>,
}

impl ScatterPlot {
    /// Creates an empty plot.
    #[must_use]
    pub fn new(title: &str, x_label: &str, y_label: &str) -> Self {
        ScatterPlot {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            width: 56,
            height: 16,
            series: Vec::new(),
            x_range: None,
            y_range: None,
        }
    }

    /// Fixes the axis ranges (otherwise derived from the data).
    #[must_use]
    pub fn with_ranges(mut self, x: (f64, f64), y: (f64, f64)) -> Self {
        self.x_range = Some(x);
        self.y_range = Some(y);
        self
    }

    /// Adds a series drawn with `marker`. Non-finite points are skipped.
    pub fn add_series(&mut self, marker: char, points: &[(f64, f64)]) {
        let clean: Vec<(f64, f64)> = points
            .iter()
            .copied()
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        self.series.push((marker, clean));
    }

    fn data_ranges(&self) -> Option<((f64, f64), (f64, f64))> {
        let all: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|(_, pts)| pts.iter().copied())
            .collect();
        if all.is_empty() {
            return None;
        }
        let pad = |lo: f64, hi: f64| {
            if (hi - lo).abs() < 1e-12 {
                (lo - 0.5, hi + 0.5)
            } else {
                let margin = (hi - lo) * 0.05;
                (lo - margin, hi + margin)
            }
        };
        let xs = all.iter().map(|p| p.0);
        let ys = all.iter().map(|p| p.1);
        let x_lo = xs.clone().fold(f64::INFINITY, f64::min);
        let x_hi = xs.fold(f64::NEG_INFINITY, f64::max);
        let y_lo = ys.clone().fold(f64::INFINITY, f64::min);
        let y_hi = ys.fold(f64::NEG_INFINITY, f64::max);
        Some((
            self.x_range.unwrap_or_else(|| pad(x_lo, x_hi)),
            self.y_range.unwrap_or_else(|| pad(y_lo, y_hi)),
        ))
    }

    /// Renders the plot to a string.
    #[must_use]
    pub fn render(&self) -> String {
        let Some(((x_lo, x_hi), (y_lo, y_hi))) = self.data_ranges() else {
            return format!("{}\n  (no data)\n", self.title);
        };
        let mut grid = vec![vec![' '; self.width]; self.height];
        for (marker, points) in &self.series {
            for &(x, y) in points {
                let col = (((x - x_lo) / (x_hi - x_lo)).clamp(0.0, 1.0) * (self.width - 1) as f64)
                    .round() as usize;
                let row = ((1.0 - ((y - y_lo) / (y_hi - y_lo)).clamp(0.0, 1.0))
                    * (self.height - 1) as f64)
                    .round() as usize;
                let cell = &mut grid[row][col];
                // Overlap of different series shows as '*'.
                *cell = if *cell == ' ' || *cell == *marker {
                    *marker
                } else {
                    '*'
                };
            }
        }
        let mut out = String::new();
        out.push_str(&format!("  {}\n", self.title));
        let y_hi_label = format!("{y_hi:.2}");
        let y_lo_label = format!("{y_lo:.2}");
        let label_width = y_hi_label.len().max(y_lo_label.len());
        for (r, row) in grid.iter().enumerate() {
            let label = if r == 0 {
                format!("{y_hi_label:>label_width$}")
            } else if r == self.height - 1 {
                format!("{y_lo_label:>label_width$}")
            } else {
                " ".repeat(label_width)
            };
            out.push_str(&format!("  {label} |{}|\n", row.iter().collect::<String>()));
        }
        out.push_str(&format!(
            "  {} +{}+\n",
            " ".repeat(label_width),
            "-".repeat(self.width)
        ));
        out.push_str(&format!(
            "  {} {x_lo:<10.2}{:^width$}{x_hi:>10.2}\n",
            " ".repeat(label_width),
            self.x_label,
            width = self.width.saturating_sub(20),
        ));
        let markers: Vec<String> = self
            .series
            .iter()
            .map(|(m, pts)| format!("{m} (n={})", pts.len()))
            .collect();
        out.push_str(&format!(
            "  {} y: {}   series: {}\n",
            " ".repeat(label_width),
            self.y_label,
            markers.join(", ")
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_points_within_frame() {
        let mut plot = ScatterPlot::new("test", "DI", "accuracy");
        plot.add_series('o', &[(0.5, 0.6), (1.0, 0.8)]);
        plot.add_series('x', &[(0.7, 0.7)]);
        let text = plot.render();
        assert!(text.contains("test"));
        assert!(text.contains('o'));
        assert!(text.contains('x'));
        assert!(text.contains("series: o (n=2), x (n=1)"));
    }

    #[test]
    fn empty_plot_is_graceful() {
        let plot = ScatterPlot::new("empty", "x", "y");
        assert!(plot.render().contains("no data"));
    }

    #[test]
    fn nan_points_are_skipped() {
        let mut plot = ScatterPlot::new("t", "x", "y");
        plot.add_series('o', &[(f64::NAN, 0.5), (0.5, 0.5)]);
        assert!(plot.render().contains("o (n=1)"));
    }

    #[test]
    fn fixed_ranges_respected() {
        let mut plot = ScatterPlot::new("t", "x", "y").with_ranges((0.0, 2.0), (0.0, 1.0));
        plot.add_series('o', &[(1.0, 0.5)]);
        let text = plot.render();
        assert!(text.contains("0.00"));
        assert!(text.contains("2.00"));
        assert!(text.contains("1.00"));
    }

    #[test]
    fn degenerate_single_point_plots() {
        let mut plot = ScatterPlot::new("t", "x", "y");
        plot.add_series('o', &[(0.5, 0.5)]);
        let text = plot.render();
        assert!(text.contains('o'));
    }

    #[test]
    fn overlapping_series_marked() {
        let mut plot = ScatterPlot::new("t", "x", "y").with_ranges((0.0, 1.0), (0.0, 1.0));
        plot.add_series('o', &[(0.5, 0.5)]);
        plot.add_series('x', &[(0.5, 0.5)]);
        assert!(plot.render().contains('*'));
    }
}
