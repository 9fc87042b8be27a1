package repro.parse

import scala.collection.mutable

/** Drain — online log parsing with a fixed-depth parse tree (He et al.,
  * ICWS 2017), the parser the paper identifies as the most efficient
  * existing solution and the base of its planned distributed variant.
  *
  * Tree layout: root → token-count node → up to `depth - 2` leading-token
  * nodes (tokens containing digits descend through a `<*>` child, and a
  * node caps its children at `maxChildren`, overflow going to `<*>`) →
  * leaf holding a list of log groups. A new line joins the most similar
  * group if the similarity of static tokens ≥ `simThreshold`, updating
  * the group template token-wise (mismatching positions become `<*>`);
  * otherwise it starts a new group.
  *
  * The two hyper-parameters (`depth`, `simThreshold`) are exactly the
  * ones whose sensitivity the paper measures as an automation limit
  * (§IV); `T4ParserBench` sweeps them.
  *
  * Instances are serializable so a trained tree can be broadcast and
  * applied in executors via [[matchOnly]] (frozen, streaming mode).
  */
class Drain(
    val depth: Int = 4,
    val simThreshold: Double = 0.4,
    val maxChildren: Int = 100,
) extends Serializable {

  /** A leaf group: mined template plus its stable id. */
  final class Group(val id: Int, var template: Vector[String]) extends Serializable

  private final class Node extends Serializable {
    val children: mutable.Map[String, Node] = mutable.Map.empty
    val groups: mutable.ArrayBuffer[Group]  = mutable.ArrayBuffer.empty
  }

  private val root  = new Node
  private var nextId = 0
  private val byId  = mutable.Map.empty[Int, Group]

  /** All mined templates, id → token vector. */
  def templates: Map[Int, Vector[String]] = byId.view.mapValues(_.template).toMap

  def templateOf(id: Int): Vector[String] = byId(id).template

  /** Parse one message online: returns the group id, learning as needed. */
  def parse(message: String): Int = parseTokens(Preprocess.tokenize(message))

  /** Parse pre-tokenized input online. */
  def parseTokens(tokens: Vector[String]): Int = synchronized {
    val leaf   = descend(tokens, grow = true)
    bestGroup(leaf.groups, tokens) match {
      case Some(g) =>
        g.template = merge(g.template, tokens)
        g.id
      case None =>
        val g = new Group(nextId, tokens)
        nextId += 1
        byId(g.id) = g
        leaf.groups += g
        g.id
    }
  }

  /** Frozen lookup: match without learning. None if no group is similar
    * enough (a novel template — MoniLog's streaming path hands these to
    * the semantic matcher).
    */
  def matchOnly(message: String): Option[Int] = matchTokens(Preprocess.tokenize(message))

  def matchTokens(tokens: Vector[String]): Option[Int] = synchronized {
    val leaf   = descend(tokens, grow = false)
    bestGroup(leaf.groups, tokens).map(_.id)
  }

  // ----------------------------------------------------------------

  private val emptyLeaf = new Node

  private def descend(tokens: Vector[String], grow: Boolean): Node = {
    var node = root
    // path: token-count key, then up to depth-2 leading tokens
    val path = tokens.length.toString +:
      tokens.take(math.max(0, depth - 2)).map(t => if (Preprocess.looksVariable(t)) "<*>" else t)
    var i = 0
    while (i < path.length) {
      val want = path(i)
      val key =
        if (want == "<*>" || node.children.contains(want)) want
        else if (!grow) "<*>" // frozen mode: fall through the wildcard child
        else if (node.children.size >= maxChildren) "<*>"
        else want
      node.children.get(key) match {
        case Some(child) => node = child
        case None =>
          if (grow) { val child = new Node; node.children(key) = child; node = child }
          else return emptyLeaf
      }
      i += 1
    }
    node
  }

  /** Similarity over positions where the template is static; wildcard
    * positions contribute 0, per the original algorithm.
    */
  private def simSeq(template: Vector[String], tokens: Vector[String]): Double = {
    if (template.length != tokens.length) return 0.0
    var eq = 0
    var i  = 0
    while (i < template.length) {
      if (template(i) == tokens(i) && template(i) != "<*>") eq += 1
      i += 1
    }
    eq.toDouble / template.length
  }

  private def bestGroup(groups: mutable.ArrayBuffer[Group], tokens: Vector[String]): Option[Group] = {
    var best: Group = null
    var bestSim     = -1.0
    groups.foreach { g =>
      val s = simSeq(g.template, tokens)
      if (s > bestSim) { bestSim = s; best = g }
    }
    if (best != null && bestSim >= simThreshold) Some(best) else None
  }

  private def merge(template: Vector[String], tokens: Vector[String]): Vector[String] =
    template.indices.map(i => if (template(i) == tokens(i)) template(i) else "<*>").toVector
}
