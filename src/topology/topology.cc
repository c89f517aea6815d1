#include "topology/topology.h"

#include <algorithm>
#include <sstream>

namespace tpu::topo {

MeshTopology::MeshTopology(const TopologyConfig& config) : config_(config) {
  TPU_CHECK_GT(config.pod_size_x, 0);
  TPU_CHECK_GT(config.pod_size_y, 0);
  TPU_CHECK_GT(config.num_pods, 0);
  TPU_CHECK_GT(config.chips_per_host, 0);
  // Hosts drive contiguous groups of chips along a row; clamp the group size
  // to the largest divisor of the row length so tiny slices remain valid.
  int chips_per_host = std::min(config_.chips_per_host, config_.size_x());
  while (config_.size_x() % chips_per_host != 0) --chips_per_host;
  config_.chips_per_host = chips_per_host;
  BuildLinks();
  TPU_CHECK_LE(MaxRoutingEntriesUsed(), config.routing_table_entries)
      << "sparse row/column routing must fit the TPU-v3 routing table";
}

void MeshTopology::BuildLinks() {
  link_index_.assign(static_cast<std::size_t>(num_chips()) * 4, -1);
  for (int y = 0; y < size_y(); ++y) {
    for (int x = 0; x < size_x(); ++x) {
      const ChipId chip = ChipAt({x, y});
      // +X neighbor.
      if (x + 1 < size_x()) {
        const LinkType type = IsCrossPodBoundary(x) ? LinkType::kCrossPodX
                                                    : LinkType::kMeshX;
        const ChipId other = ChipAt({x + 1, y});
        link_index_[chip * 4 + kDirPlusX] = AddLink(chip, other, type);
        link_index_[other * 4 + kDirMinusX] = AddLink(other, chip, type);
      } else if (config_.wrap_x && size_x() > 2) {
        const ChipId other = ChipAt({0, y});
        link_index_[chip * 4 + kDirPlusX] =
            AddLink(chip, other, LinkType::kMeshX);
        link_index_[other * 4 + kDirMinusX] =
            AddLink(other, chip, LinkType::kMeshX);
      }
      // +Y neighbor.
      if (y + 1 < size_y()) {
        const ChipId other = ChipAt({x, y + 1});
        link_index_[chip * 4 + kDirPlusY] =
            AddLink(chip, other, LinkType::kMeshY);
        link_index_[other * 4 + kDirMinusY] =
            AddLink(other, chip, LinkType::kMeshY);
      } else if (config_.wrap_y && size_y() > 2) {
        const ChipId other = ChipAt({x, 0});
        link_index_[chip * 4 + kDirPlusY] =
            AddLink(chip, other, LinkType::kWrapY);
        link_index_[other * 4 + kDirMinusY] =
            AddLink(other, chip, LinkType::kWrapY);
      }
    }
  }
}

LinkId MeshTopology::AddLink(ChipId from, ChipId to, LinkType type) {
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{id, from, to, type});
  return id;
}

std::vector<ChipId> MeshTopology::ChipsOfHost(HostId host) const {
  TPU_CHECK_GE(host, 0);
  TPU_CHECK_LT(host, num_hosts());
  const int hosts_per_row = size_x() / config_.chips_per_host;
  const int y = host / hosts_per_row;
  const int x0 = (host % hosts_per_row) * config_.chips_per_host;
  std::vector<ChipId> chips;
  chips.reserve(config_.chips_per_host);
  for (int dx = 0; dx < config_.chips_per_host; ++dx) {
    chips.push_back(ChipAt({x0 + dx, y}));
  }
  return chips;
}

bool MeshTopology::AreNeighbors(ChipId a, ChipId b) const {
  for (int dir = 0; dir < 4; ++dir) {
    const LinkId id = link_index_[a * 4 + dir];
    if (id >= 0 && links_[id].to == b) return true;
  }
  return false;
}

LinkId MeshTopology::LinkBetween(ChipId from, ChipId to) const {
  for (int dir = 0; dir < 4; ++dir) {
    const LinkId id = link_index_[from * 4 + dir];
    if (id >= 0 && links_[id].to == to) return id;
  }
  TPU_CHECK(false) << "chips " << from << " and " << to
                   << " are not physical neighbors";
  return -1;
}

std::vector<ChipId> MeshTopology::Route(ChipId from, ChipId to) const {
  std::vector<ChipId> path{from};
  ForEachRouteLink(from, to,
                   [&](LinkId id) { path.push_back(links_[id].to); });
  return path;
}

std::vector<LinkId> MeshTopology::RouteLinks(ChipId from, ChipId to) const {
  std::vector<LinkId> result;
  ForEachRouteLink(from, to, [&](LinkId id) { result.push_back(id); });
  return result;
}

std::vector<ChipId> MeshTopology::VisibleChips(ChipId chip) const {
  const Coord c = CoordOf(chip);
  std::vector<ChipId> visible;
  visible.reserve(size_x() + size_y() - 2);
  for (int x = 0; x < size_x(); ++x) {
    if (x != c.x) visible.push_back(ChipAt({x, c.y}));
  }
  for (int y = 0; y < size_y(); ++y) {
    if (y != c.y) visible.push_back(ChipAt({c.x, y}));
  }
  return visible;
}

int MeshTopology::MaxRoutingEntriesUsed() const {
  // Row + column visibility is uniform over chips.
  return size_x() + size_y() - 2;
}

std::vector<ChipId> MeshTopology::LineAlong(Dim dim, ChipId through) const {
  const Coord c = CoordOf(through);
  std::vector<ChipId> line;
  if (dim == Dim::kX) {
    line.reserve(size_x());
    for (int x = 0; x < size_x(); ++x) line.push_back(ChipAt({x, c.y}));
  } else {
    line.reserve(size_y());
    for (int y = 0; y < size_y(); ++y) line.push_back(ChipAt({c.x, y}));
  }
  return line;
}

namespace {

// Folds a line into a ring: 0,2,4,...,(back),...,5,3,1. Consecutive ring
// positions are at most two physical hops apart, and every physical link is
// used by at most two ring edges — the standard way to run ring collectives
// on a mesh (non-wrapped) dimension at half link bandwidth.
std::vector<ChipId> FoldLine(const std::vector<ChipId>& line) {
  std::vector<ChipId> ring;
  ring.reserve(line.size());
  for (std::size_t i = 0; i < line.size(); i += 2) ring.push_back(line[i]);
  const std::size_t last_odd = (line.size() % 2 == 0) ? line.size() - 1
                                                      : line.size() - 2;
  for (std::size_t i = last_odd;; i -= 2) {
    ring.push_back(line[i]);
    if (i <= 1) break;
  }
  return ring;
}

}  // namespace

std::vector<ChipId> MeshTopology::RingAlong(Dim dim, ChipId through) const {
  std::vector<ChipId> line = LineAlong(dim, through);
  const bool wrapped = dim == Dim::kX ? config_.wrap_x : config_.wrap_y;
  if (wrapped || line.size() <= 2) return line;
  return FoldLine(line);
}

std::vector<ChipId> MeshTopology::StridedRingAlong(Dim dim, ChipId through,
                                                   int stride) const {
  TPU_CHECK_GT(stride, 0);
  const std::vector<ChipId> line = LineAlong(dim, through);
  const Coord c = CoordOf(through);
  const int offset = (dim == Dim::kX ? c.x : c.y) % stride;
  std::vector<ChipId> strided;
  for (std::size_t i = offset; i < line.size(); i += stride) {
    strided.push_back(line[i]);
  }
  const bool wrapped = dim == Dim::kX ? config_.wrap_x : config_.wrap_y;
  if (wrapped || strided.size() <= 2) return strided;
  return FoldLine(strided);
}

SubmeshRect LargestHealthySubmesh(const MeshTopology& topo,
                                  const std::vector<ChipId>& dead_chips,
                                  int x_granularity) {
  TPU_CHECK_GE(x_granularity, 1);
  TPU_CHECK_EQ(topo.size_x() % x_granularity, 0)
      << "carve granularity must tile the mesh width";
  const int cols = topo.size_x() / x_granularity;  // granule columns
  const int rows = topo.size_y();

  // granule (col, row) is healthy iff all x_granularity chips in it are.
  std::vector<char> healthy(static_cast<std::size_t>(cols) * rows, 1);
  for (const ChipId chip : dead_chips) {
    const Coord c = topo.CoordOf(chip);
    healthy[static_cast<std::size_t>(c.y) * cols + c.x / x_granularity] = 0;
  }

  // Classic maximal rectangle: per row, heights[c] counts consecutive
  // healthy rows ending here; a monotonic stack finds the best rectangle of
  // each histogram. Strict `>` on area keeps the first-found winner, so the
  // result is a deterministic function of (topology, dead set, granularity).
  SubmeshRect best;
  std::vector<int> heights(cols + 1, 0);  // sentinel column flushes the stack
  std::vector<int> stack;                 // column indices, heights ascending
  for (int y = 0; y < rows; ++y) {
    for (int c = 0; c < cols; ++c) {
      heights[c] = healthy[static_cast<std::size_t>(y) * cols + c] != 0
                       ? heights[c] + 1
                       : 0;
    }
    stack.clear();
    for (int c = 0; c <= cols; ++c) {
      const int h = heights[c];
      int left = c;
      while (!stack.empty() && heights[stack.back()] >= h) {
        const int top = stack.back();
        stack.pop_back();
        left = stack.empty() ? 0 : stack.back() + 1;
        const int area = heights[top] * (c - left);
        if (area > best.chips() / x_granularity) {
          best.x0 = left * x_granularity;
          best.y0 = y - heights[top] + 1;
          best.size_x = (c - left) * x_granularity;
          best.size_y = heights[top];
        }
      }
      stack.push_back(c);
    }
  }
  return best;
}

std::string MeshTopology::ToString() const {
  std::ostringstream os;
  os << "MeshTopology " << size_x() << "x" << size_y() << " ("
     << config_.num_pods << " pod(s), " << num_chips() << " chips, "
     << num_cores() << " cores, " << num_hosts() << " hosts"
     << (config_.wrap_y ? ", Y torus" : "") << ")";
  return os.str();
}

}  // namespace tpu::topo
