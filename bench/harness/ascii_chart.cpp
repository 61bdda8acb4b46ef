#include "harness/ascii_chart.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace insp {

namespace {

std::string format_tick(double v) {
  char buf[32];
  if (std::abs(v) >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2gM", v / 1e6);
  } else if (std::abs(v) >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.3gk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  }
  return buf;
}

} // namespace

std::string render_ascii_chart(const std::vector<ChartSeries>& series,
                               const ChartOptions& options) {
  double xmin = std::numeric_limits<double>::infinity();
  double xmax = -xmin, ymin = xmin, ymax = -xmin;
  bool any = false;
  for (const auto& s : series) {
    for (const auto& [x, y] : s.points) {
      if (!std::isfinite(y) || !std::isfinite(x)) continue;
      any = true;
      xmin = std::min(xmin, x);
      xmax = std::max(xmax, x);
      ymin = std::min(ymin, y);
      ymax = std::max(ymax, y);
    }
  }
  std::ostringstream out;
  if (!options.title.empty()) out << options.title << "\n";
  if (!any) {
    out << "  (no finite data points to plot)\n";
    return out.str();
  }
  if (xmax == xmin) xmax = xmin + 1.0;
  if (ymax == ymin) ymax = ymin + 1.0;
  // Pad y-range 5% so extremes don't sit on the frame.
  const double ypad = 0.05 * (ymax - ymin);
  ymin -= ypad;
  ymax += ypad;

  const int W = std::max(16, options.width);
  const int H = std::max(6, options.height);
  std::vector<std::string> grid(H, std::string(W, ' '));

  for (const auto& s : series) {
    for (const auto& [x, y] : s.points) {
      if (!std::isfinite(y) || !std::isfinite(x)) continue;
      int col = static_cast<int>(std::lround((x - xmin) / (xmax - xmin) * (W - 1)));
      int row = static_cast<int>(std::lround((y - ymin) / (ymax - ymin) * (H - 1)));
      col = std::clamp(col, 0, W - 1);
      row = std::clamp(row, 0, H - 1);
      grid[H - 1 - row][col] = s.marker;
    }
  }

  const int label_w = 9;
  for (int r = 0; r < H; ++r) {
    std::string label(label_w, ' ');
    if (r == 0 || r == H - 1 || r == H / 2) {
      const double v = ymax - (ymax - ymin) * r / (H - 1);
      std::string t = format_tick(v);
      if (static_cast<int>(t.size()) > label_w) t.resize(label_w);
      label.replace(label_w - t.size(), t.size(), t);
    }
    out << label << " |" << grid[r] << "\n";
  }
  out << std::string(label_w + 1, ' ') << '+' << std::string(W, '-') << "\n";
  {
    std::string axis(label_w + 2 + W, ' ');
    std::string lo = format_tick(xmin), hi = format_tick(xmax);
    axis.replace(label_w + 2, lo.size(), lo);
    if (hi.size() < static_cast<std::size_t>(W)) {
      axis.replace(label_w + 2 + W - hi.size(), hi.size(), hi);
    }
    out << axis << "  " << options.x_label << "\n";
  }
  out << "  legend:";
  for (const auto& s : series) {
    out << "  " << s.marker << "=" << s.name;
  }
  if (!options.y_label.empty()) out << "   (y: " << options.y_label << ")";
  out << "\n";
  return out.str();
}

} // namespace insp
